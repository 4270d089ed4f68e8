#include "util/thread_pool.hpp"

#include <atomic>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "util/assert.hpp"
#include "util/mutex.hpp"

namespace mrlg {

namespace {

/// Test-only chunk hook (see ThreadPool::set_chunk_hook_for_test).
std::atomic<ThreadPool::ChunkHook> g_chunk_hook{nullptr};

/// Helper count of the live global pool; -1 until instantiated. Lets
/// ThreadPool::config() report what actually ran without instantiating
/// the pool as a side effect of reporting.
std::atomic<int> g_global_pool_active{-1};

/// State of one parallel region. Heap-shared so a worker that wakes late
/// (after the region completed and a new one started) still operates on
/// the counters of the region it was dispatched for, never a newer one.
struct JobState {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    /// One slot per chunk; slot c is written only by the thread that
    /// claimed chunk c (disjoint indices), so no lock guards the vector.
    std::vector<std::exception_ptr> errors;
    Mutex done_mutex;
    CondVar done_cv;
};

/// Pulls chunks until the job is exhausted. Safe to call even when the
/// job is already complete (the fetch_add immediately overflows).
void drain(JobState& job) {
    while (true) {
        const std::size_t c = job.next.fetch_add(1);
        if (c >= job.num_chunks) {
            return;
        }
        try {
            if (ThreadPool::ChunkHook hook =
                    g_chunk_hook.load(std::memory_order_relaxed);
                hook != nullptr) {
                hook(c);
            }
            (*job.fn)(c);
        } catch (...) {
            job.errors[c] = std::current_exception();
        }
        if (job.completed.fetch_add(1) + 1 == job.num_chunks) {
            // Empty critical section pairs with the waiter's predicate
            // check so the notification cannot be missed.
            { MutexLock lk(job.done_mutex); }
            job.done_cv.notify_all();
        }
    }
}

}  // namespace

struct ThreadPool::Impl {
    Mutex mutex;
    CondVar work_cv;
    std::vector<std::thread> threads;  // written by ctor/dtor thread only
    std::shared_ptr<JobState> current MRLG_GUARDED_BY(mutex);
    /// Helpers the current job may still claim.
    int open_slots MRLG_GUARDED_BY(mutex) = 0;
    std::uint64_t generation MRLG_GUARDED_BY(mutex) = 0;
    bool stop MRLG_GUARDED_BY(mutex) = false;

    void worker_loop() {
        std::uint64_t seen = 0;
        while (true) {
            std::shared_ptr<JobState> job;
            {
                MutexLock lk(mutex);
                work_cv.wait(mutex, lk, [&] {
                    mutex.assert_held();
                    return stop || (current != nullptr && open_slots > 0 &&
                                    generation != seen);
                });
                if (stop) {
                    return;
                }
                seen = generation;
                --open_slots;
                job = current;
            }
            drain(*job);
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
    if (helpers <= 0) {
        for (std::size_t c = 0; c < num_chunks; ++c) {
            chunk_fn(c);
        }
        return;
    }

    auto job = std::make_shared<JobState>();
    job->fn = &chunk_fn;
    job->num_chunks = num_chunks;
    job->errors.assign(num_chunks, nullptr);
    {
        MutexLock lk(impl_->mutex);
        impl_->current = job;
        impl_->open_slots = helpers;
        ++impl_->generation;
    }
    impl_->work_cv.notify_all();

    drain(*job);  // the calling thread participates

    {
        MutexLock lk(job->done_mutex);
        job->done_cv.wait(job->done_mutex, lk, [&] {
            // completed is atomic; the lock only serializes the sleep
            // against drain()'s empty critical section above.
            return job->completed.load() == job->num_chunks;
        });
    }
    {
        // Retire the job so late wakeups go back to sleep immediately.
        MutexLock lk(impl_->mutex);
        if (impl_->current == job) {
            impl_->current.reset();
            impl_->open_slots = 0;
        }
    }
    for (std::exception_ptr& e : job->errors) {
        if (e) {
            std::rethrow_exception(e);
        }
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

void parallel_for(std::size_t n, std::size_t grain, int num_threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t chunks = num_chunks_for(n, g);
    if (chunks == 0) {
        return;
    }
    const int threads = ThreadPool::resolve_threads(num_threads);
    if (threads <= 1 || chunks == 1) {
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t b = c * g;
            fn(b, std::min(n, b + g));
        }
        return;
    }
    ThreadPool::global().run_chunks(chunks, threads, [&](std::size_t c) {
        const std::size_t b = c * g;
        fn(b, std::min(n, b + g));
    });
}

}  // namespace mrlg
