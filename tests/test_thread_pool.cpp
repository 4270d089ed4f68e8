#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace mrlg::test {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    for (const int threads : {1, 2, 4, 8}) {
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) {
            h.store(0);
        }
        parallel_for(n, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << threads << " threads";
        }
    }
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
    bool called = false;
    parallel_for(0, 4, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SerialCasesRunOnCallerInOrder) {
    // One index, or one thread: no pool, every index on the caller.
    const auto caller = std::this_thread::get_id();
    for (const auto& [n, threads] :
         {std::pair<std::size_t, int>{1, 8}, {50, 1}}) {
        std::vector<std::size_t> calls;
        bool on_caller = true;
        parallel_for(n, threads, [&](std::size_t i) {
            calls.push_back(i);
            on_caller = on_caller && std::this_thread::get_id() == caller;
        });
        std::vector<std::size_t> expected(n);
        std::iota(expected.begin(), expected.end(), std::size_t{0});
        EXPECT_EQ(calls, expected) << "n=" << n << " threads=" << threads;
        EXPECT_TRUE(on_caller) << "n=" << n << " threads=" << threads;
    }
}

TEST(ThreadPool, ExceptionsPropagateFromSerialAndParallel) {
    for (const int threads : {1, 4}) {
        EXPECT_THROW(
            parallel_for(1000, threads,
                         [&](std::size_t i) {
                             if (i == 637) {
                                 throw std::runtime_error("boom");
                             }
                         }),
            std::runtime_error)
            << "threads=" << threads;
    }
}

TEST(ThreadPool, PoolSurvivesAThrowingRegion) {
    auto& pool = ThreadPool::global();
    EXPECT_THROW(pool.run_chunks(8, 4,
                                 [](std::size_t c) {
                                     if (c == 3) {
                                         throw std::runtime_error("boom");
                                     }
                                 }),
                 std::runtime_error);
    // Next region still works.
    std::atomic<int> count{0};
    pool.run_chunks(8, 4, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 8);
}

/// Set by chunk 5 of LowestIndexedThrowWinsOverEarlierThrow just before
/// it throws.
std::atomic<bool> g_chunk5_threw{false};

/// Holds chunk 2 back until chunk 5 has thrown, and a little longer so
/// that chunk 5's exception is recorded first. Bounded, so a run that gave
/// both chunks to one thread cannot hang.
void hold_chunk2_until_chunk5_threw(std::size_t chunk) {
    if (chunk != 2) {
        return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!g_chunk5_threw.load() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(ThreadPool, LowestIndexedThrowWinsOverEarlierThrow) {
    g_chunk5_threw.store(false);
    ThreadPool::set_chunk_hook_for_test(&hold_chunk2_until_chunk5_threw);
    std::string rethrown;
    try {
        ThreadPool::global().run_chunks(8, 4, [](std::size_t c) {
            if (c == 5) {
                g_chunk5_threw.store(true);
                throw std::runtime_error("chunk 5");
            }
            if (c == 2) {
                throw std::runtime_error("chunk 2");
            }
        });
    } catch (const std::runtime_error& e) {
        rethrown = e.what();
    }
    ThreadPool::set_chunk_hook_for_test(nullptr);
    EXPECT_TRUE(g_chunk5_threw.load());
    EXPECT_EQ(rethrown, "chunk 2");
}

TEST(ThreadPool, NestedParallelForVisitsEveryPairOnce) {
    // The inner run finds the pool's slot taken by the outer one and runs
    // on its own thread; every (outer, inner) pair still runs once.
    constexpr std::size_t kOuter = 24;
    constexpr std::size_t kInner = 40;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    for (auto& h : hits) {
        h.store(0);
    }
    parallel_for(kOuter, 4, [&](std::size_t o) {
        parallel_for(kInner, 4, [&](std::size_t i) {
            hits[o * kInner + i].fetch_add(1);
        });
    });
    for (std::size_t k = 0; k < hits.size(); ++k) {
        ASSERT_EQ(hits[k].load(), 1) << "outer " << k / kInner << ", inner "
                                     << k % kInner;
    }
}

TEST(ThreadPool, ResolveThreadsPrefersExplicitRequest) {
    EXPECT_EQ(ThreadPool::resolve_threads(5), 5);
    EXPECT_GE(ThreadPool::default_threads(), 1);
}

TEST(ThreadPool, DefaultThreadsReadsEnvironment) {
    ASSERT_EQ(setenv("MRLG_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::default_threads(), 3);
    EXPECT_EQ(ThreadPool::resolve_threads(0), 3);
    ASSERT_EQ(setenv("MRLG_THREADS", "100000", 1), 0);
    EXPECT_EQ(ThreadPool::default_threads(), ThreadPool::kMaxThreads);
    // Parsed whole: anything but a number >= 1 is an error naming the
    // variable and the text, never a silent fallback. Only the parse
    // runs; no pool is built.
    for (const char* bad : {"not-a-number", "4x", "", "0", "-1"}) {
        ASSERT_EQ(setenv("MRLG_THREADS", bad, 1), 0);
        try {
            static_cast<void>(ThreadPool::default_threads());
            ADD_FAILURE() << "MRLG_THREADS='" << bad << "' was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "MRLG_THREADS needs a whole number >= 1, got '" +
                          std::string(bad) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
    ASSERT_EQ(unsetenv("MRLG_THREADS"), 0);
}

}  // namespace
}  // namespace mrlg::test
