#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mrlg::test {
namespace {

TEST(ThreadPool, ChunkingDependsOnlyOnNAndGrain) {
    EXPECT_EQ(num_chunks_for(0, 16), 0u);
    EXPECT_EQ(num_chunks_for(1, 16), 1u);
    EXPECT_EQ(num_chunks_for(16, 16), 1u);
    EXPECT_EQ(num_chunks_for(17, 16), 2u);
    EXPECT_EQ(num_chunks_for(5, 0), 5u);  // grain 0 treated as 1
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    for (const int threads : {1, 2, 4, 8}) {
        const std::size_t n = 1000;
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) {
            h.store(0);
        }
        parallel_for(n, 16, threads, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i) {
                hits[i].fetch_add(1);
            }
        });
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " at "
                                         << threads << " threads";
        }
    }
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
    bool called = false;
    parallel_for(0, 16, 4, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
    const int r = parallel_reduce(
        std::size_t{0}, std::size_t{16}, 4, 42,
        [](std::size_t, std::size_t) { return 0; },
        [](int a, int b) { return a + b; });
    EXPECT_EQ(r, 42);  // init returned untouched
}

TEST(ThreadPool, SingleChunkWhenNBelowGrainRunsOnCaller) {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    const auto caller = std::this_thread::get_id();
    std::thread::id executed_on;
    parallel_for(5, 100, 8, [&](std::size_t b, std::size_t e) {
        std::lock_guard<std::mutex> lk(m);
        calls.emplace_back(b, e);
        executed_on = std::this_thread::get_id();
    });
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0], (std::pair<std::size_t, std::size_t>{0, 5}));
    EXPECT_EQ(executed_on, caller);
}

TEST(ThreadPool, ReduceSumMatchesClosedForm) {
    const std::size_t n = 12345;
    for (const int threads : {1, 2, 8}) {
        const std::int64_t sum = parallel_reduce(
            n, std::size_t{64}, threads, std::int64_t{0},
            [](std::size_t b, std::size_t e) {
                std::int64_t s = 0;
                for (std::size_t i = b; i < e; ++i) {
                    s += static_cast<std::int64_t>(i);
                }
                return s;
            },
            [](std::int64_t a, std::int64_t b) { return a + b; });
        EXPECT_EQ(sum, static_cast<std::int64_t>(n) *
                           static_cast<std::int64_t>(n - 1) / 2);
    }
}

TEST(ThreadPool, DoubleReduceBitIdenticalAcrossThreadCounts) {
    Rng rng(99);
    std::vector<double> values(10007);
    for (double& v : values) {
        v = rng.uniform01() * 1e6 - 5e5;
    }
    const auto run = [&](int threads) {
        return parallel_reduce(
            values.size(), std::size_t{128}, threads, 0.0,
            [&](std::size_t b, std::size_t e) {
                double s = 0.0;
                for (std::size_t i = b; i < e; ++i) {
                    s += values[i];
                }
                return s;
            },
            [](double a, double b) { return a + b; });
    };
    const double serial = run(1);
    for (const int threads : {2, 3, 7, 8}) {
        const double parallel = run(threads);
        // Bit-identical, not just close: fixed chunk boundaries + ordered
        // combine make the summation order independent of the threads.
        EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
            << "threads=" << threads;
    }
}

TEST(ThreadPool, ExceptionsPropagateFromSerialAndParallel) {
    for (const int threads : {1, 4}) {
        EXPECT_THROW(
            parallel_for(1000, 16, threads,
                         [&](std::size_t b, std::size_t e) {
                             for (std::size_t i = b; i < e; ++i) {
                                 if (i == 637) {
                                     throw std::runtime_error("boom");
                                 }
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
    parallel_for(kOuter, 1, 4, [&](std::size_t ob, std::size_t oe) {
        for (std::size_t o = ob; o < oe; ++o) {
            parallel_for(kInner, 4, 4, [&](std::size_t ib, std::size_t ie) {
                for (std::size_t i = ib; i < ie; ++i) {
                    hits[o * kInner + i].fetch_add(1);
                }
            });
        }
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

TEST(ThreadPool, NestedSerialReduceInsideParallelRegion) {
    // The MLL scan calls evaluators that may themselves reduce; inner
    // calls with num_threads=1 must stay serial and correct.
    const std::int64_t total = parallel_reduce(
        std::size_t{64}, std::size_t{4}, 4, std::int64_t{0},
        [](std::size_t b, std::size_t e) {
            std::int64_t s = 0;
            for (std::size_t i = b; i < e; ++i) {
                s += parallel_reduce(
                    std::size_t{10}, std::size_t{4}, 1, std::int64_t{0},
                    [&](std::size_t bb, std::size_t ee) {
                        return static_cast<std::int64_t>(ee - bb) *
                               static_cast<std::int64_t>(i);
                    },
                    [](std::int64_t a, std::int64_t b2) { return a + b2; });
            }
            return s;
        },
        [](std::int64_t a, std::int64_t b) { return a + b; });
    EXPECT_EQ(total, 10 * (64 * 63 / 2));
}

}  // namespace
}  // namespace mrlg::test
