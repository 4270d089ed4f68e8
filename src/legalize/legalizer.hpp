#pragma once
/// \file legalizer.hpp
/// Full-design incremental legalization (paper §3, Algorithm 1):
/// first pass places every cell at (or MLL-legalizes around) its global
/// placement position; cells that could not be placed are retried with
/// uniformly random offsets whose range grows with the round number
/// (Rand_x(k) ∈ [-Rx·(k-1), Rx·(k-1)], likewise Rand_y).

#include <cstdint>

#include "check/audit.hpp"
#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/mll.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// Bound on retry rounds (Algorithm 1's while-loop runs until empty; we
/// guard against infeasible inputs). A round whose offsets reach the die
/// size effectively searches everywhere.
inline constexpr int kMaxRounds = 64;

/// Options of legalize_placement. Every run queues the cells to place
/// multi-row cells first, input order within each height: single-row cells
/// can always squeeze into leftover gaps, but a late multi-row cell can be
/// starved when earlier single-row cells consume the paired-row capacity
/// (MLL never moves a placed cell across rows, §4). The paper leaves the
/// order "arbitrary"; this is the robust arbitrary choice.
struct LegalizerOptions {
    MllOptions mll;
    std::uint64_t seed = 1;
    /// Unplace all movable cells before starting (Algorithm 1 line 1).
    /// False makes an ECO call: placed cells stay and only the unplaced
    /// ones are queued.
    bool unplace_first = true;
    /// From this retry round on, a failed MLL attempt additionally falls
    /// back to the nearest completely free slot (deterministic; no cells
    /// moved). Algorithm 1's random offsets alone can keep missing the
    /// few remaining free pockets on very dense designs; the fallback
    /// bounds the tail. Two rounds later rip-up joins it as the last
    /// resort: evict single-row cells under a candidate footprint, place
    /// the target and re-insert the evicted cells (transactional — see
    /// ripup.hpp). Rip-up rescues a multi-row cell whose paired-row
    /// capacity was starved, as an ECO call can find it. A value past
    /// kMaxRounds disables both.
    int free_slot_fallback_round = 6;
    /// Worker threads for the plan fan-out: each wave's MLL problems are
    /// planned concurrently (legalize/pipeline.hpp), and each attempt
    /// scans its insertion points serially on its worker. 0 means the
    /// MRLG_THREADS environment default. Results are bit-identical for any
    /// value (see thread_pool.hpp's determinism contract).
    int num_threads = 0;
    /// Invariant-audit level for the run; defaults to the MRLG_VALIDATE
    /// environment level (off when unset, so production runs pay nothing;
    /// a value audit_level_from_env cannot parse throws).
    /// kCheap audits the database and segment grid after setup, after
    /// every retry round, and once more at the end. kFull additionally
    /// audits after every committed placement and every rip-up
    /// transaction, checks each MLL extraction/packing (see MllOptions),
    /// and cross-checks the final state with the independent
    /// eval/legality sweep. Violations throw AssertionError.
    AuditLevel audit = audit_level_from_env();
};

/// Per-run statistics. Contract: every field here is surfaced verbatim in
/// the run report's `legalizer` block (obs/run_report.cpp stats_json —
/// keep the two in sync; test_obs.cpp RunReport.ContainsAllBlocks checks)
/// and mirrored as `legalize.*` obs counters at the end of a run.
struct LegalizerStats {
    bool success = false;       ///< Every movable cell placed.
    std::size_t num_cells = 0;
    std::size_t direct_placements = 0;  ///< Overlap-free at first try.
    std::size_t mll_successes = 0;
    std::size_t mll_failures = 0;  ///< Failed MLL attempts (incl. retries).
    std::size_t fallback_placements = 0;  ///< Free-slot fallback hits.
    std::size_t ripup_placements = 0;     ///< Rip-up transactions applied.
    std::size_t unplaced = 0;      ///< Cells still unplaced at the end.
    /// Insertion points enumerated across all direct MLL attempts, summed
    /// (MllPlan::num_points; rip-up internals excluded). Each one was
    /// either scored or excluded by the scan's cost bound.
    std::size_t mll_points_evaluated = 0;
    /// Invariant audits executed by this run's hooks, the per-attempt MLL
    /// audits included (0 when auditing is off); lets callers and tests
    /// confirm the hooks actually fired.
    std::size_t audits_run = 0;
    /// Plan/commit waves executed across all rounds (never 0 once a round
    /// ran). A round with no footprint conflicts is one wave; a
    /// fully-conflicting round degrades to one wave per cell, and so does
    /// every round with the free-slot fallback or rip-up enabled, whose
    /// tasks are barriers (legalize/pipeline.hpp).
    std::size_t waves = 0;
    /// Σ(level − 1) over every task (legalize/pipeline.hpp): each wave a
    /// cell waits for because its footprint overlaps an earlier queue
    /// entry's counts once, so an n-task barrier round adds n(n−1)/2.
    /// Pipeline-health signal: high values mean the batches are thin and
    /// the round is effectively serial.
    std::size_t conflict_requeues = 0;
    int rounds = 0;
    double runtime_s = 0.0;
};

/// Legalizes every movable cell of `db`. Fixed cells must already be
/// frozen into the floorplan (Database::freeze_fixed_cells) and `grid`
/// built afterwards.
LegalizerStats legalize_placement(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts = {});

/// Rounds the preferred fractional position to the nearest site-aligned,
/// in-die, rail-compatible position for `cell` (paper §3 "nearest
/// site-aligned and power-rail matching position").
MRLG_EFFECT_READONLY
Point nearest_aligned_position(const Database& db, CellId cell, double px,
                               double py, bool check_rail);

}  // namespace mrlg
