#include "legalize/mll.hpp"

#include <cmath>
#include <limits>

#include "check/audit_local.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/ilp_local.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/local_region.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace mrlg {

namespace {

constexpr std::size_t kNoPoint = static_cast<std::size_t>(-1);

/// Chunk-local (and final) state of the parallel candidate scan. Combined
/// in ascending chunk order with the deterministic tie-break
/// (cost, point index), which reproduces the serial "first strictly lower
/// cost wins" rule exactly.
struct ScanBest {
    Evaluation eval;
    std::size_t index = kNoPoint;
    std::size_t evaluated = 0;  ///< Points actually evaluated (not chunks).
};

/// Evaluates every enumerated point and returns the best feasible one.
/// Read-only over `lp`; evaluation order never affects the winner.
ScanBest scan_insertion_points(const LocalProblem& lp,
                               const EnumerationResult& enumr,
                               const TargetSpec& target,
                               const MllOptions& opts) {
    const auto map = [&](std::size_t begin, std::size_t end) {
        // One scratch per worker thread: steady-state evaluation allocates
        // nothing. Cleared by each evaluate call before use.
        thread_local EvalScratch scratch;
        ScanBest best;
        for (std::size_t i = begin; i < end; ++i) {
            const InsertionPoint& p = enumr.points[i];
            const Evaluation ev =
                opts.exact_evaluation
                    ? evaluate_insertion_point_exact(lp, p, target, scratch)
                    : evaluate_insertion_point_approx(lp, p, target,
                                                      scratch);
            ++best.evaluated;
            if (ev.feasible && (best.index == kNoPoint ||
                                ev.cost_um < best.eval.cost_um)) {
                best.eval = ev;
                best.index = i;
            }
        }
        return best;
    };
    const auto combine = [](ScanBest acc, ScanBest part) {
        acc.evaluated += part.evaluated;
        if (part.index != kNoPoint &&
            (acc.index == kNoPoint ||
             part.eval.cost_um < acc.eval.cost_um ||
             (part.eval.cost_um == acc.eval.cost_um &&
              part.index < acc.index))) {
            acc.eval = part.eval;
            acc.index = part.index;
        }
        return acc;
    };
    // Fixed grain: chunk boundaries must not depend on the thread count
    // (see thread_pool.hpp). Exact evaluation is O(|C_W|) per point, so it
    // amortizes the dispatch overhead at a finer grain.
    const std::size_t grain = opts.exact_evaluation ? 16 : 128;
    return parallel_reduce(enumr.points.size(), grain, opts.num_threads,
                           ScanBest{}, map, combine);
}

MllPlan plan_with(const Database& db, const SegmentGrid& grid,
                  CellId target_cell, double pref_x, double pref_y,
                  const MllOptions& opts, MllScratch& s) {
    MRLG_OBS_PHASE("mll");
    MRLG_OBS_COUNT("mll.attempts", 1);
    MllPlan res;
    const Cell& cell = db.cell(target_cell);
    MRLG_ASSERT(!cell.placed(), "MLL target must be unplaced");
    MRLG_ASSERT(!cell.fixed(), "MLL target must be movable");

    TargetSpec target;
    target.id = target_cell;
    target.w = cell.width();
    target.h = cell.height();
    target.pref_x = pref_x;
    target.pref_y = pref_y;
    target.rail_phase = cell.rail_phase();

    // Window of paper §3: lower-left (x - Rx, y - Ry), size
    // (2Rx + w) x (2Ry + h), anchored at the rounded preferred position.
    const SiteCoord ax = static_cast<SiteCoord>(std::lround(pref_x));
    const SiteCoord ay = static_cast<SiteCoord>(std::lround(pref_y));
    const Rect window{static_cast<SiteCoord>(ax - opts.rx),
                      static_cast<SiteCoord>(ay - opts.ry),
                      static_cast<SiteCoord>(2 * opts.rx + target.w),
                      static_cast<SiteCoord>(2 * opts.ry + target.h)};

    LocalRegion& region = s.local_region;
    extract_local_region(db, grid, window, cell.region(), s.region, region);
    if (region.height() == 0) {
        MRLG_OBS_COUNT("mll.no_region", 1);
        return res;
    }
    if (opts.audit >= AuditLevel::kFull) {
        enforce(audit_local_region(db, grid, region, cell.region()));
    }
    LocalProblem& lp = s.local_problem;
    lp.rebuild(db, region, s.problem);
    res.num_local_cells = static_cast<std::size_t>(lp.num_cells());

    compute_minmax_placement(lp);
    if (opts.audit >= AuditLevel::kFull) {
        enforce(audit_local_problem(lp, /*minmax_filled=*/true));
    }
    const std::vector<InsertionInterval>& intervals = s.intervals;
    build_insertion_intervals(lp, target.w, s.intervals);

    EnumerationOptions eopts;
    eopts.check_rail = opts.check_rail;
    eopts.max_points = opts.max_points;

    // Select the insertion point: MIP search, or enumeration + (exact |
    // approximate) evaluation.
    InsertionPoint mip_point;
    const EnumerationResult& enumr = s.enumerated;
    const InsertionPoint* best_point = nullptr;
    Evaluation best_eval;
    best_eval.cost_um = std::numeric_limits<double>::max();

    if (opts.use_mip) {
        const IlpLocalResult mip = solve_local_ilp(lp, target, eopts);
        if (!mip.feasible) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        res.num_points = 1;
        mip_point.k0 = mip.base_row_k;
        mip_point.gaps.assign(mip.gaps);
        // Feasible x range from the per-row intervals of the chosen gaps.
        // Every row of the chosen combination must match an interval: a row
        // without one means the MIP picked a gap that interval construction
        // discarded, and the lo/hi sentinels would otherwise pass the
        // lo <= hi check and let an unconstrained x slip through.
        MRLG_ASSERT(bind_point_to_intervals(intervals, mip_point.k0,
                                            mip_point.gaps, mip_point.lo,
                                            mip_point.hi),
                    "MIP solution row has no matching insertion interval");
        MRLG_ASSERT(mip_point.lo <= mip_point.hi,
                    "MIP solution has no matching interval range");
        best_eval = evaluate_insertion_point_exact(lp, mip_point, target);
        MRLG_ASSERT(best_eval.feasible, "MIP point fails exact evaluation");
        best_point = &mip_point;
    } else {
        enumerate_insertion_points(lp, intervals, target, eopts,
                                   s.enumeration, s.enumerated);
        res.enumeration_truncated = enumr.truncated;
        if (enumr.truncated) {
            MRLG_OBS_COUNT("mll.enumerations_truncated", 1);
        }
        if (enumr.points.empty()) {
            MRLG_OBS_COUNT("mll.no_insertion_point", 1);
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        ScanBest best;
        {
            MRLG_OBS_PHASE("scan");
            best = scan_insertion_points(lp, enumr, target, opts);
        }
        // Per-point accounting: sum of points each chunk evaluated, exact
        // under any chunking (== points.size(); never the chunk count).
        res.num_points = best.evaluated;
        MRLG_OBS_COUNT("mll.points_evaluated", best.evaluated);
        MRLG_ASSERT(best.evaluated == enumr.points.size(),
                    "parallel scan must evaluate every enumerated point");
        if (best.index == kNoPoint) {
            MRLG_OBS_COUNT("mll.no_insertion_point", 1);
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        best_eval = best.eval;
        best_point = &enumr.points[best.index];
    }

    Realization& real = s.realization;
    realize_insertion(lp, *best_point, best_eval.xt, target.w, real,
                      s.realize_left);
    MRLG_ASSERT(real.ok, "realization failed for an enumerated point");

    // Record the would-be commit: shifted local cells (row lists keep
    // their order) and the target slot. Nothing is mutated here. Counted
    // first so the move list is the attempt's only allocation.
    const auto shifted = [&](int i) {
        return real.new_x[static_cast<std::size_t>(i)] != lp.cell(i).x;
    };
    std::size_t num_moves = 0;
    for (int i = 0; i < lp.num_cells(); ++i) {
        num_moves += shifted(i) ? 1 : 0;
    }
    res.moves.reserve(num_moves);
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (shifted(i)) {
            const LpCell& c = lp.cell(i);
            res.moves.push_back(MllPlan::Move{
                c.id, c.x, real.new_x[static_cast<std::size_t>(i)]});
        }
    }
    const SiteCoord y_abs = lp.y0() + best_point->k0;

    res.status = MllStatus::kSuccess;
    res.x = real.xt;
    res.y = y_abs;
    res.est_cost_um = best_eval.cost_um;
    res.real_cost_um =
        real.moved_sites * lp.site_w_um() +
        std::abs(static_cast<double>(real.xt) - pref_x) * lp.site_w_um() +
        std::abs(static_cast<double>(y_abs) - pref_y) * lp.site_h_um();
    return res;
}

}  // namespace

MllPlan mll_plan(const Database& db, const SegmentGrid& grid,
                 CellId target_cell, double pref_x, double pref_y,
                 const MllOptions& opts, MllScratch* scratch) {
    if (scratch != nullptr) {
        return plan_with(db, grid, target_cell, pref_x, pref_y, opts,
                         *scratch);
    }
    MllScratch fresh;
    return plan_with(db, grid, target_cell, pref_x, pref_y, opts, fresh);
}

MllResult mll_result_from_plan(const MllPlan& plan) {
    MllResult res;
    res.status = plan.status;
    res.x = plan.x;
    res.y = plan.y;
    res.est_cost_um = plan.est_cost_um;
    res.real_cost_um = plan.real_cost_um;
    res.num_points = plan.num_points;
    res.num_local_cells = plan.num_local_cells;
    res.enumeration_truncated = plan.enumeration_truncated;
    res.moved.reserve(plan.moves.size());
    for (const MllPlan::Move& m : plan.moves) {
        res.moved.emplace_back(m.id, m.old_x);
    }
    return res;
}

MllResult mll_commit(Database& db, SegmentGrid& grid, CellId target_cell,
                     const MllPlan& plan) {
    MRLG_ASSERT(plan.success(), "can only commit a successful MLL plan");
    const Cell& target = db.cell(target_cell);
    MRLG_ASSERT(!target.placed(), "MLL commit target must be unplaced");

    // Validation pass 1: every move base must still hold (a shifted base
    // means another commit touched this plan's footprint).
    bool stale = false;
    for (const MllPlan::Move& m : plan.moves) {
        const Cell& c = db.cell(m.id);
        if (!c.placed() || c.x() != m.old_x) {
            stale = true;
            break;
        }
    }
    if (!stale) {
        // Apply the shifts, then validation pass 2: the target slot must
        // be free. Shifts restore exactly on failure (set_x only).
        for (const MllPlan::Move& m : plan.moves) {
            db.cell(m.id).set_x(m.new_x);
        }
        const Rect slot{plan.x, plan.y, target.width(), target.height()};
        if (grid.placeable(db, slot, CellId{}, target.region())) {
            grid.place(db, target_cell, plan.x, plan.y);
            MllResult res = mll_result_from_plan(plan);
            MRLG_OBS_COUNT("mll.commits", 1);
            MRLG_OBS_COUNT("mll.cells_shifted", res.moved.size());
            return res;
        }
        for (const MllPlan::Move& m : plan.moves) {
            db.cell(m.id).set_x(m.old_x);
        }
    }
    MllResult res;
    res.status = MllStatus::kPlanInvalidated;
    res.num_points = plan.num_points;
    res.num_local_cells = plan.num_local_cells;
    res.enumeration_truncated = plan.enumeration_truncated;
    return res;
}

MllResult mll_place(Database& db, SegmentGrid& grid, CellId target_cell,
                    double pref_x, double pref_y, const MllOptions& opts,
                    MllScratch* scratch) {
    const MllPlan plan =
        mll_plan(db, grid, target_cell, pref_x, pref_y, opts, scratch);
    if (!plan.success()) {
        return mll_result_from_plan(plan);
    }
    MllResult res = mll_commit(db, grid, target_cell, plan);
    // With no interleaved mutation a plan can never be stale.
    MRLG_ASSERT(res.status != MllStatus::kPlanInvalidated,
                "mll plan invalidated immediately after planning");
    return res;
}

void mll_undo(Database& db, SegmentGrid& grid, CellId target_cell,
              const MllResult& result) {
    MRLG_ASSERT(result.success(), "can only undo a successful MLL commit");
    grid.remove(db, target_cell);
    // Restoring x values cannot change any row list's relative order:
    // shifted cells return to positions that were legal before the move.
    for (const auto& [id, old_x] : result.moved) {
        db.cell(id).set_x(old_x);
    }
}

}  // namespace mrlg
