#include "legalize/mll.hpp"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "check/audit_local.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/ilp_local.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mrlg {

namespace {

MllPlan plan_with(const Database& db, const SegmentGrid& grid,
                  CellId target_cell, double pref_x, double pref_y,
                  const MllOptions& opts, MllScratch& s) {
    MRLG_OBS_PHASE("mll");
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

    LocalProblem& lp = s.local_problem;
    extract_local_region(db, grid, mll_window(cell, pref_x, pref_y, opts),
                         cell.region(), s.window, lp);
    if (lp.num_rows() == 0) {
        return res;
    }
    if (opts.audit >= AuditLevel::kFull) {
        ++res.audits_run;
        enforce(audit_local_region(db, grid, lp, cell.region()));
    }
    res.num_local_cells = static_cast<std::size_t>(lp.num_cells());

    compute_minmax_placement(lp);
    if (opts.audit >= AuditLevel::kFull) {
        ++res.audits_run;
        enforce(audit_local_problem(lp));
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
        res.num_scored = 1;
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
        best_eval = evaluate_insertion_point_exact(lp, mip_point, target,
                                                   s.evaluation);
        MRLG_ASSERT(best_eval.feasible, "MIP point fails exact evaluation");
        best_point = &mip_point;
    } else {
        enumerate_insertion_points(lp, intervals, target, eopts,
                                   s.enumeration, s.enumerated);
        res.enumeration_truncated = enumr.truncated;
        if (enumr.points.empty()) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        PointScan best;
        {
            MRLG_OBS_PHASE("scan");
            best = scan_insertion_points(lp, enumr.points, target,
                                         opts.exact_evaluation,
                                         s.evaluation);
        }
        // Per-point accounting: every enumerated point is either scored or
        // excluded by the cost bound.
        MRLG_ASSERT(best.scored + best.skipped == enumr.points.size(),
                    "scan must score or exclude every enumerated point");
        res.num_points = enumr.points.size();
        res.num_scored = static_cast<std::uint32_t>(best.scored);
        if (opts.audit >= AuditLevel::kFull) {
            ++res.audits_run;
            enforce(audit_point_scan(lp, enumr.points, target,
                                     point_evaluator(opts.exact_evaluation),
                                     best));
        }
        if (!best.found()) {
            res.status = MllStatus::kNoInsertionPoint;
            return res;
        }
        best_eval = best.eval;
        best_point = &enumr.points[best.index];
    }

    Realization& real = s.realization;
    realize_insertion(lp, *best_point, best_eval.xt, target.w, real,
                      s.realize);
    MRLG_ASSERT(real.ok, "realization failed for an enumerated point");

    // Record the would-be commit: shifted local cells in local-index (x)
    // order, each row list keeping its order, and the target slot. Nothing
    // is mutated here. Counted first so the move list is the attempt's
    // only allocation.
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

/// The SegmentGrid::shift moves that take `plan`'s shifted cells to their
/// new x, or back to their old x.
std::vector<std::pair<CellId, SiteCoord>> shifts_of(const MllPlan& plan,
                                                    bool back) {
    std::vector<std::pair<CellId, SiteCoord>> shifts;
    shifts.reserve(plan.moves.size());
    for (const MllPlan::Move& m : plan.moves) {
        shifts.emplace_back(m.id, back ? m.old_x : m.new_x);
    }
    return shifts;
}

}  // namespace

Rect mll_window(const Cell& cell, double pref_x, double pref_y,
                const MllOptions& opts) {
    const SiteCoord ax = static_cast<SiteCoord>(std::lround(pref_x));
    const SiteCoord ay = static_cast<SiteCoord>(std::lround(pref_y));
    return Rect{static_cast<SiteCoord>(ax - opts.rx),
                static_cast<SiteCoord>(ay - opts.ry),
                static_cast<SiteCoord>(2 * opts.rx + cell.width()),
                static_cast<SiteCoord>(2 * opts.ry + cell.height())};
}

void count_attempt(const MllPlan& plan) {
    MRLG_OBS_COUNT("mll.attempts", 1);
    if (plan.status == MllStatus::kNoRegion) {
        MRLG_OBS_COUNT("mll.no_region", 1);
        return;
    }
    if (plan.enumeration_truncated) {
        MRLG_OBS_COUNT("mll.enumerations_truncated", 1);
    }
    if (plan.num_points > 0) {
        MRLG_OBS_COUNT("mll.points_evaluated", plan.num_points);
    }
    if (plan.status == MllStatus::kNoInsertionPoint) {
        MRLG_OBS_COUNT("mll.no_insertion_point", 1);
    }
}

MllPlan mll_plan(const Database& db, const SegmentGrid& grid,
                 CellId target_cell, double pref_x, double pref_y,
                 const MllOptions& opts, MllScratch* scratch) {
    if (scratch == nullptr) {
        MllScratch fresh;
        return mll_plan(db, grid, target_cell, pref_x, pref_y, opts, &fresh);
    }
    MllPlan plan =
        plan_with(db, grid, target_cell, pref_x, pref_y, opts, *scratch);
    count_attempt(plan);
    return plan;
}

const MllPlan& mll_commit(Database& db, SegmentGrid& grid,
                          CellId target_cell, const MllPlan& plan) {
    MRLG_ASSERT(plan.success(), "can only commit a successful MLL plan");
    const Cell& target = db.cell(target_cell);
    MRLG_ASSERT(!target.placed(), "MLL commit target must be unplaced");
    // A stale plan means another commit touched this plan's footprint,
    // which the pipeline's schedule rules out: a broken invariant, raised
    // only once the grid is back in its pre-commit state.
    const auto stale = [&](const std::string& why) {
        return "stale MLL plan for cell " +
               std::to_string(target_cell.value()) + " (" + target.name() +
               "): " + why;
    };

    // Validation pass 1: every move base must still hold.
    for (const MllPlan::Move& m : plan.moves) {
        const Cell& c = db.cell(m.id);
        MRLG_ASSERT(c.placed() && c.x() == m.old_x,
                    stale("moved cell " + std::to_string(m.id.value()) +
                          " left its planned base x"));
    }
    // Apply the shifts (a shift that would break a list's order changes
    // nothing and throws), then validation pass 2: the target slot must be
    // free. Every move keeps its old x, so one shift reverts them.
    try {
        grid.shift(db, shifts_of(plan, false));
    } catch (const AssertionError& e) {
        MRLG_ASSERT(false, stale(e.what()));
    }
    const Rect slot{plan.x, plan.y, target.width(), target.height()};
    const bool slot_free = grid.placeable(slot, CellId{}, target.region());
    if (!slot_free) {
        grid.shift(db, shifts_of(plan, true));
    }
    MRLG_ASSERT(slot_free, stale("its target slot is occupied"));
    grid.place(db, target_cell, plan.x, plan.y);
    MRLG_OBS_COUNT("mll.commits", 1);
    MRLG_OBS_COUNT("mll.cells_shifted", plan.moves.size());
    return plan;
}

MllPlan mll_place(Database& db, SegmentGrid& grid, CellId target_cell,
                  double pref_x, double pref_y, const MllOptions& opts,
                  MllScratch* scratch) {
    MllPlan plan =
        mll_plan(db, grid, target_cell, pref_x, pref_y, opts, scratch);
    if (plan.success()) {
        mll_commit(db, grid, target_cell, plan);
    }
    return plan;
}

void mll_undo(Database& db, SegmentGrid& grid, CellId target_cell,
              const MllPlan& plan) {
    MRLG_ASSERT(plan.success(), "can only undo a successful MLL commit");
    grid.remove(db, target_cell);
    // Restoring x values cannot change any row list's relative order:
    // shifted cells return to positions that were legal before the move.
    grid.shift(db, shifts_of(plan, true));
}

}  // namespace mrlg
