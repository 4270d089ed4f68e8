#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.hpp"

namespace mrlg {

namespace {

/// Test-only chunk hook (see ThreadPool::set_chunk_hook_for_test).
std::atomic<ThreadPool::ChunkHook> g_chunk_hook{nullptr};

/// Helper count of the live global pool; -1 until instantiated. Lets
/// ThreadPool::config() report what actually ran without instantiating
/// the pool as a side effect of reporting.
std::atomic<int> g_global_pool_active{-1};

}  // namespace

struct ThreadPool::Impl {
    using ChunkFn = std::function<void(std::size_t)>;

    Mutex mutex;
    CondVar work_cv;  ///< Helpers wait here for an open place in the slot.
    CondVar left_cv;  ///< The slot's owner waits here for helpers to leave.
    std::vector<std::thread> threads;  // written by ctor/dtor thread only

    // The one job slot. A run owns it from open() to close(); helpers
    // enter through its open places and copy the job out under the lock.
    const ChunkFn* fn MRLG_GUARDED_BY(mutex) = nullptr;  ///< null: free
    std::size_t num_chunks MRLG_GUARDED_BY(mutex) = 0;
    std::atomic<std::size_t> next{0};  ///< Next chunk to claim.
    int open_slots MRLG_GUARDED_BY(mutex) = 0;  ///< Helpers still admitted.
    int inside MRLG_GUARDED_BY(mutex) = 0;      ///< Helpers draining now.
    std::size_t failed_chunk MRLG_GUARDED_BY(mutex) = 0;
    std::exception_ptr failure MRLG_GUARDED_BY(mutex);  ///< failed_chunk's
    bool stop MRLG_GUARDED_BY(mutex) = false;

    /// Fills the slot and admits `helpers`; false when another run holds
    /// it (a run nested in a chunk, or one from a second thread).
    bool open(const ChunkFn& chunk_fn, std::size_t chunks, int helpers) {
        MutexLock lk(mutex);
        if (fn != nullptr) {
            return false;
        }
        fn = &chunk_fn;
        num_chunks = chunks;
        next.store(0);
        open_slots = helpers;
        failure = nullptr;
        return true;
    }

    /// Claims chunks until none is left. A throwing chunk's exception is
    /// kept only if no lower-indexed chunk's is.
    void drain(const ChunkFn& chunk_fn, std::size_t chunks) {
        for (std::size_t c = next.fetch_add(1); c < chunks;
             c = next.fetch_add(1)) {
            try {
                if (ThreadPool::ChunkHook hook =
                        g_chunk_hook.load(std::memory_order_relaxed);
                    hook != nullptr) {
                    hook(c);
                }
                chunk_fn(c);
            } catch (...) {
                MutexLock lk(mutex);
                if (failure == nullptr || c < failed_chunk) {
                    failed_chunk = c;
                    failure = std::current_exception();
                }
            }
        }
    }

    /// Admits no further helper, waits until every helper that entered
    /// has left (so every chunk has finished), frees the slot and returns
    /// the lowest-indexed failing chunk's exception, if any.
    std::exception_ptr close() {
        MutexLock lk(mutex);
        open_slots = 0;
        left_cv.wait(mutex, lk, [&] {
            mutex.assert_held();
            return inside == 0;
        });
        fn = nullptr;
        return std::exchange(failure, nullptr);
    }

    void worker_loop() {
        while (true) {
            const ChunkFn* job = nullptr;
            std::size_t chunks = 0;
            {
                MutexLock lk(mutex);
                work_cv.wait(mutex, lk, [&] {
                    mutex.assert_held();
                    return stop || open_slots > 0;
                });
                if (stop) {
                    return;
                }
                --open_slots;
                ++inside;
                job = fn;
                chunks = num_chunks;
            }
            drain(*job, chunks);
            MutexLock lk(mutex);
            if (--inside == 0) {
                left_cv.notify_one();
            }
        }
    }
};

ThreadPool::ThreadPool(int num_workers) : impl_(new Impl) {
    const int n = std::max(num_workers, 0);
    impl_->threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        impl_->threads.emplace_back([this] { impl_->worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        MutexLock lk(impl_->mutex);
        impl_->stop = true;
    }
    impl_->work_cv.notify_all();
    for (std::thread& t : impl_->threads) {
        t.join();
    }
    delete impl_;
}

int ThreadPool::num_workers() const {
    return static_cast<int>(impl_->threads.size());
}

void ThreadPool::run_chunks(std::size_t num_chunks, int max_threads,
                            const std::function<void(std::size_t)>& chunk_fn) {
    if (num_chunks == 0) {
        return;
    }
    const std::size_t max_helpers =
        static_cast<std::size_t>(std::max(max_threads - 1, 0));
    const int helpers = static_cast<int>(
        std::min({max_helpers, static_cast<std::size_t>(num_workers()),
                  num_chunks - 1}));
    if (helpers <= 0 || !impl_->open(chunk_fn, num_chunks, helpers)) {
        for (std::size_t c = 0; c < num_chunks; ++c) {
            chunk_fn(c);
        }
        return;
    }
    for (int i = 0; i < helpers; ++i) {
        impl_->work_cv.notify_one();
    }
    impl_->drain(chunk_fn, num_chunks);  // the calling thread participates
    if (std::exception_ptr failure = impl_->close()) {
        std::rethrow_exception(failure);
    }
}

namespace {

/// Helper-thread count the global pool is built with. Shared with
/// ThreadPool::config() so reporting never has to instantiate the pool.
int global_pool_workers() {
    const int hw = ThreadPool::default_threads();
    // Enough helpers that an explicit 8-thread request is honored even
    // on small machines; capped to keep oversubscription bounded.
    return std::clamp(std::max(hw, 8), 1, 64) - 1;
}

}  // namespace

ThreadPool& ThreadPool::global() {
    static ThreadPool pool(global_pool_workers());
    g_global_pool_active.store(pool.num_workers(),
                               std::memory_order_relaxed);
    return pool;
}

void ThreadPool::set_chunk_hook_for_test(ChunkHook hook) {
    g_chunk_hook.store(hook, std::memory_order_relaxed);
}

int ThreadPool::resolve_threads(int requested) {
    return requested > 0 ? requested : default_threads();
}

int ThreadPool::default_threads() {
    if (const char* env = std::getenv("MRLG_THREADS")) {
        const std::string_view text = env;
        std::uint64_t v = 0;
        const char* end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec == std::errc::result_out_of_range && ptr == end) {
            return kMaxThreads;  // more digits than 64 bits hold
        }
        if (ec != std::errc{} || ptr != end || v == 0) {
            throw std::invalid_argument(
                "MRLG_THREADS needs a whole number >= 1, got '" +
                std::string(text) + "'");
        }
        return static_cast<int>(std::min<std::uint64_t>(v, kMaxThreads));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPoolConfig ThreadPool::config() {
    ThreadPoolConfig c;
    const unsigned hw = std::thread::hardware_concurrency();
    c.hardware_threads = hw == 0 ? 1 : static_cast<int>(hw);
    c.default_threads = default_threads();
    c.pool_workers = global_pool_workers();
    c.pool_workers_active = g_global_pool_active.load(
        std::memory_order_relaxed);
    // default_threads() above parsed the value (or threw on a bad one).
    c.env_override = std::getenv("MRLG_THREADS") != nullptr;
    return c;
}

void parallel_for(std::size_t n, int num_threads,
                  const std::function<void(std::size_t)>& fn) {
    const int threads = ThreadPool::resolve_threads(num_threads);
    if (threads <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            fn(i);
        }
        return;
    }
    ThreadPool::global().run_chunks(n, threads, fn);
}

}  // namespace mrlg
