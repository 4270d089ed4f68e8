#pragma once
/// \file thread_pool.hpp
/// The worker pool behind the one parallel region of mrlg: the
/// legalizer's per-wave MLL plan fan-out (legalize/pipeline.hpp). Every
/// other computation, HPWL and the legality check included, runs on the
/// calling thread.
///
/// Determinism contract: `parallel_for` runs each index as its own chunk,
/// and the fan-out's task i reads only the wave-start state and writes
/// only its own slot (its task record and plan i). The commit then reads
/// the slots in queue order on the calling thread. Threads decide only
/// which worker plans which task, so any `num_threads` (including 1)
/// produces bit-identical placements and stats.
///
/// The pool has one job slot. A run fills it, wakes one helper per place
/// it admits, drains chunks beside them and returns once every helper that
/// entered has left. A run that finds the slot taken (one nested in a
/// chunk, or one from a second thread) runs its chunks on its own thread.
///
/// Thread count resolution: an explicit request wins; a request of 0 falls
/// back to the `MRLG_THREADS` environment variable, then to the hardware
/// concurrency. `MRLG_THREADS`, when set, must be a whole number >= 1
/// (above ThreadPool::kMaxThreads it clamps to that); anything else throws
/// std::invalid_argument. A resolved count of 1 (or n <= 1) runs entirely
/// on the calling thread without touching the pool.

#include <cstddef>
#include <functional>

namespace mrlg {

/// Snapshot of the machine/environment thread configuration, for honest
/// reporting in benchmark JSON and (wall-clock) run reports — speedup
/// numbers are meaningless without the real hardware_threads behind them.
/// Pure accessors: taking a snapshot never instantiates the global pool.
struct ThreadPoolConfig {
    int hardware_threads = 1;  ///< std::thread::hardware_concurrency().
    int default_threads = 1;   ///< ThreadPool::default_threads() result.
    int pool_workers = 0;      ///< Helper threads ThreadPool::global() uses.
    /// Helper threads the global pool actually spawned; -1 until the pool
    /// has been instantiated. Distinct from `pool_workers` (the size the
    /// pool WOULD be built with) so reports can state what really ran.
    int pool_workers_active = -1;
    bool env_override = false; ///< MRLG_THREADS set (to a valid value).
};

class ThreadPool {
public:
    /// Spawns `num_workers` helper threads (the calling thread of a
    /// parallel region always participates on top of these).
    explicit ThreadPool(int num_workers);
    ~ThreadPool();
    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    int num_workers() const;

    /// Runs `chunk_fn(c)` for every c in [0, num_chunks) across at most
    /// `max_threads` threads (calling thread included). Blocks until every
    /// chunk has finished. If chunks throw, the exception of the
    /// lowest-indexed throwing chunk is rethrown: on several threads the
    /// remaining chunks still run (there is no cancellation); on one, the
    /// first throw ends the run.
    void run_chunks(std::size_t num_chunks, int max_threads,
                    const std::function<void(std::size_t)>& chunk_fn);

    /// Process-wide pool, lazily created on first parallel use. Sized so
    /// that benchmark sweeps up to 8 threads are real threads even on
    /// smaller machines.
    static ThreadPool& global();

    /// Largest thread count MRLG_THREADS selects; larger values clamp.
    static constexpr int kMaxThreads = 256;

    /// `requested` when > 0, else default_threads().
    static int resolve_threads(int requested);

    /// The MRLG_THREADS environment variable when set — parsed whole, so
    /// it must be a number >= 1, clamped to kMaxThreads; anything else
    /// (`4x`, `abc`, empty, `0`, `-1`) throws std::invalid_argument naming
    /// the variable and the text. Unset: std::thread::hardware_concurrency()
    /// (at least 1). Re-read on every call (cheap), so tests may override
    /// the environment.
    static int default_threads();

    /// Current thread configuration snapshot (see ThreadPoolConfig).
    static ThreadPoolConfig config();

    /// TEST ONLY: called with the chunk index on the executing thread just
    /// before every chunk body runs. Lets tests force specific thread
    /// interleavings (e.g. stalling even-indexed chunks so a different
    /// worker wins the race for the next one) to prove order-independence
    /// properties like the timeline merge. nullptr (the default) is free.
    /// Never set this outside tests.
    using ChunkHook = void (*)(std::size_t chunk);
    static void set_chunk_hook_for_test(ChunkHook hook);

private:
    struct Impl;
    Impl* impl_;
};

/// Runs `fn(i)` for every i in [0, n) on up to `num_threads` threads
/// (0 = default), one index per chunk. Runs on the calling thread, in
/// ascending order, when the resolved count is 1 or n <= 1. `fn` must
/// tolerate concurrent invocation on distinct indices.
void parallel_for(std::size_t n, int num_threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mrlg
