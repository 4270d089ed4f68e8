#pragma once
/// \file mll.hpp
/// Multi-row Local Legalization (paper §4): insert one unplaced target cell
/// near a preferred position, shifting local cells minimally in x.
///
/// Pipeline: window → local region extraction → leftmost/rightmost packing
/// → insertion intervals → enumeration → per-point evaluation (neighbour
/// approximation by default, exact optionally; only points a cost bound
/// cannot exclude are scored) → realization of the best point → commit to
/// the database/segment grid.
/// On failure nothing is modified (the paper's abort semantics).
///
/// The operation is split into a read-only planning half (mll_plan) and a
/// mutating commit half (mll_commit) so the legalizer's region-parallel
/// pipeline can compute many plans concurrently against a frozen grid and
/// apply them serially in queue order. mll_place composes the two and is
/// the drop-in serial entry point.

#include <cstdint>

#include "check/audit.hpp"
#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/local_region.hpp"
#include "legalize/realization.hpp"

namespace mrlg {

struct MllOptions {
    SiteCoord rx = 30;  ///< Window half-width (paper: Rx = 30).
    SiteCoord ry = 5;   ///< Window half-height (paper: Ry = 5).
    bool check_rail = true;
    /// Evaluate insertion points exactly (O(|C_W|) each) instead of the
    /// paper's O(h_t) neighbour approximation. With exact evaluation the
    /// chosen solution is optimal for the local subproblem — this is the
    /// "ILP" configuration of Table 1 (see DESIGN.md substitution notes).
    bool exact_evaluation = false;
    /// Solve each local problem with the actual MIP formulation (our
    /// simplex + branch & bound, the lpsolve stand-in) instead of
    /// enumeration. Equally optimal, orders of magnitude slower — used to
    /// reproduce the paper's 185x ILP runtime ratio (bench_table1
    /// --true-ilp). Takes precedence over exact_evaluation.
    bool use_mip = false;
    std::size_t max_points = 1u << 20;
    /// Invariant-audit level for this attempt. At kFull every extraction
    /// is checked against the §2.1.3 post-conditions, every min/max
    /// packing against the §5.1.1 bounds, and every bound-pruned scan
    /// against a re-scan of all its points (audit_local.hpp) before the
    /// result is trusted; violations throw AssertionError. kOff/kCheap
    /// skip the per-attempt audits (the legalizer still audits the grid
    /// at phase boundaries).
    AuditLevel audit = AuditLevel::kOff;
    /// Worker threads for the insertion-point evaluation scan. 0 = the
    /// MRLG_THREADS environment default (hardware concurrency when unset);
    /// 1 = serial. Any value yields the bit-identical chosen point: the
    /// scan merges chunk-local bests with the deterministic tie-break
    /// (cost, point index) that matches the serial first-strictly-better
    /// rule.
    int num_threads = 0;
};

/// The buffers one MLL attempt builds its problem in: the window snapshot,
/// the CSR region and problem, the intervals, the enumeration queues and
/// points, and realization's sweep arrays. Each attempt refills them in
/// place, so they stay at their high-water capacity. The scan's buffers
/// are not here: it may fan out over pool workers, so each thread keeps
/// thread_local ones (evaluation.cpp).
/// With both warm, an attempt allocates nothing but the returned plan's
/// move list. One scratch per thread (the legalizer keeps a thread_local
/// one per thread); never share one across threads. Optional — pass
/// nullptr for one-off calls.
struct MllScratch {
    LocalRegionScratch region;
    LocalProblemScratch problem;
    LocalRegion local_region;
    LocalProblem local_problem;
    std::vector<InsertionInterval> intervals;
    EnumerationScratch enumeration;
    EnumerationResult enumerated;
    Realization realization;
    std::vector<SiteCoord> realize_left;
};

enum class MllStatus {
    kSuccess,
    kNoInsertionPoint,  ///< Region extracted but no feasible point.
    kNoRegion,          ///< Window contains no usable rows.
};

struct MllResult {
    MllStatus status = MllStatus::kNoRegion;
    SiteCoord x = 0;  ///< Committed target position (success only).
    SiteCoord y = 0;
    double est_cost_um = 0.0;   ///< Evaluator cost of the chosen point.
    double real_cost_um = 0.0;  ///< Realized displacement cost, microns.
    std::size_t num_points = 0;  ///< As MllPlan::num_points.
    std::size_t num_local_cells = 0;
    bool enumeration_truncated = false;
    std::uint8_t audits_run = 0;  ///< As MllPlan::audits_run.
    /// Local cells the commit shifted, with their pre-move x. MLL only
    /// ever changes x (rows and orders are invariant), so an exact undo is
    /// "restore these x values and remove the target".
    std::vector<std::pair<CellId, SiteCoord>> moved;

    bool success() const { return status == MllStatus::kSuccess; }
};

/// Exactly reverts a successful mll_place: removes the target and restores
/// every shifted cell. The grid must not have been modified in between.
void mll_undo(Database& db, SegmentGrid& grid, CellId target_cell,
              const MllResult& result) MRLG_REQUIRES(grid_write_cap());

/// A fully-computed MLL solution that has not touched the database or the
/// segment grid. Produced by mll_plan (read-only over db/grid), applied by
/// mll_commit. Plans carry everything MllResult reports, so a failed plan
/// converts losslessly into one (as mll_place does).
struct MllPlan {
    MllStatus status = MllStatus::kNoRegion;
    SiteCoord x = 0;  ///< Planned target position (success only).
    SiteCoord y = 0;
    double est_cost_um = 0.0;
    double real_cost_um = 0.0;
    /// Enumerated insertion points: each one was either scored or
    /// excluded by the cost bound (1 for the MIP path). This is what the
    /// mll.points_evaluated counter sums.
    std::size_t num_points = 0;
    std::size_t num_local_cells = 0;
    bool enumeration_truncated = false;
    // The next two are narrow so that they fill the padding after the
    // flag: the pipeline holds one plan per queued cell, so a larger plan
    // raises the legalizer's peak memory.
    /// Per-attempt invariant audits run (MllOptions::audit at kFull).
    std::uint8_t audits_run = 0;
    /// The enumerated points whose full evaluation ran (<= num_points).
    std::uint32_t num_scored = 0;
    /// One shifted local cell. `old_x` is the position the plan was
    /// computed against; commit validates it before applying `new_x`.
    struct Move {
        CellId id;
        SiteCoord old_x = 0;
        SiteCoord new_x = 0;
    };
    std::vector<Move> moves;  ///< Shifted cells, row-list order.

    bool success() const { return status == MllStatus::kSuccess; }
};

/// The MLL window of paper §3: lower-left (x − Rx, y − Ry), size
/// (2Rx + w) × (2Ry + h), anchored at the rounded preferred position.
/// mll_plan extracts its local region from it and the legalizer's attempt
/// footprint covers it (pipeline.hpp), so both use this one definition.
Rect mll_window(const Cell& cell, double pref_x, double pref_y,
                const MllOptions& opts);

/// Read-only planning half of MLL: computes where `target_cell` (must be
/// unplaced) would be inserted near (pref_x, pref_y) and which local cells
/// would shift, without mutating `db` or `grid`. Safe to run concurrently
/// with other mll_plan calls on the same db/grid as long as nothing
/// mutates them; pass a per-thread scratch.
MRLG_EFFECT_READONLY
MllPlan mll_plan(const Database& db, const SegmentGrid& grid,
                 CellId target_cell, double pref_x, double pref_y,
                 const MllOptions& opts = {}, MllScratch* scratch = nullptr);

/// Emits the per-attempt `mll.*` counters (attempts, no_region,
/// enumerations_truncated, points_evaluated, no_insertion_point) for one
/// plan. mll_plan calls it on every result; a caller that plans with the
/// tracer paused (the legalizer's plan fan-out) replays it at commit, so
/// this is the counters' only source.
void count_attempt(const MllPlan& plan);

/// Applies a successful plan: validates it against the live grid (every
/// move base unchanged, target slot placeable after the shifts), then
/// shifts the moved cells and registers the target. A stale plan is
/// unreachable when plans are confined to pairwise-disjoint footprints
/// (the pipeline's level schedule), so it is a broken invariant: commit
/// restores any shift it applied and throws AssertionError naming the
/// cell.
MllResult mll_commit(Database& db, SegmentGrid& grid, CellId target_cell,
                     const MllPlan& plan) MRLG_REQUIRES(grid_write_cap());

/// Places `target_cell` (must be unplaced) as close as possible to the
/// preferred fractional position (pref_x, pref_y), legalizing the local
/// neighbourhood. Commits on success; leaves everything untouched on
/// failure. Equivalent to mll_plan immediately followed by mll_commit.
MllResult mll_place(Database& db, SegmentGrid& grid, CellId target_cell,
                    double pref_x, double pref_y,
                    const MllOptions& opts = {},
                    MllScratch* scratch = nullptr)
    MRLG_REQUIRES(grid_write_cap());

}  // namespace mrlg
