// The bound-pruned insertion-point scan (evaluation.hpp, DESIGN.md §2f)
// against the exhaustive serial scan it replaces: the same winner, xt and
// bit-equal cost, a cost bound that never exceeds the cost it bounds, and
// one pass that scores only the points that can still win.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// Scores every point in index order; the first point of least cost wins.
PointScan exhaustive_scan(const LocalProblem& lp,
                          const std::vector<InsertionPoint>& points,
                          const TargetSpec& target, bool exact) {
    PointScan best;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Evaluation ev =
            exact ? evaluate_insertion_point_exact(lp, points[i], target)
                  : evaluate_insertion_point_approx(lp, points[i], target);
        ++best.scored;
        if (ev.feasible &&
            (!best.found() || ev.cost_um < best.eval.cost_um)) {
            best.eval = ev;
            best.index = i;
        }
    }
    return best;
}

/// The scored count the one-pass rule implies, derived from every point's
/// evaluation: the seed (first point of least bound) is scored; any other
/// point is skipped when its bound is above the seed's cost, or at or
/// above the best cost among the points before it.
std::size_t one_pass_scored(const LocalProblem& lp,
                            const std::vector<InsertionPoint>& points,
                            const TargetSpec& target, bool exact) {
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::pair<double, double>> bound_cost;  // (bound, cost)
    std::size_t seed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Evaluation ev =
            exact ? evaluate_insertion_point_exact(lp, points[i], target)
                  : evaluate_insertion_point_approx(lp, points[i], target);
        bound_cost.emplace_back(cost_lower_bound_um(lp, points[i], target),
                                ev.feasible ? ev.cost_um : inf);
        if (bound_cost[i].first < bound_cost[seed].first) {
            seed = i;
        }
    }
    const double seed_cost = points.empty() ? inf : bound_cost[seed].second;
    double best = inf;
    std::size_t scored = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto [bound, cost] = bound_cost[i];
        if (i != seed && (bound > seed_cost || bound >= best)) {
            continue;
        }
        ++scored;
        best = std::min(best, cost);
    }
    return scored;
}

/// One random local problem with its enumerated points. pref_x and pref_y
/// are integers or half-integers, so equal costs (and equal bounds) are
/// common: half-integer pref_y gives two rows the same y cost.
struct Case {
    RandomDesign design;
    LocalProblem lp;
    TargetSpec target;
    EnumerationResult enumerated;
};

Case random_case(Rng& rng) {
    const SiteCoord rows = 10;
    const SiteCoord sites = 120;
    Case c{random_legal_design(rng, rows, sites,
                               static_cast<int>(rng.uniform(40, 130)), 0.3,
                               3),
           LocalProblem{}, TargetSpec{}, EnumerationResult{}};
    const SiteCoord wx = static_cast<SiteCoord>(rng.uniform(20, 100));
    const Rect window{static_cast<SiteCoord>(rng.uniform(0, sites - wx)),
                      static_cast<SiteCoord>(rng.uniform(0, 3)), wx,
                      static_cast<SiteCoord>(rng.uniform(3, 7))};
    c.lp = extract_local_region(c.design.db, c.design.grid, window);
    compute_minmax_placement(c.lp);
    c.target.w = static_cast<SiteCoord>(rng.uniform(1, 5));
    c.target.h =
        rng.chance(0.6) ? 1 : static_cast<SiteCoord>(rng.uniform(2, 3));
    c.target.rail_phase =
        rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
    const double half_x = rng.chance(0.5) ? 0.5 : 0.0;
    const double half_y = rng.chance(0.5) ? 0.5 : 0.0;
    c.target.pref_x =
        static_cast<double>(window.x + rng.uniform(0, window.w)) + half_x;
    c.target.pref_y =
        static_cast<double>(window.y + rng.uniform(0, window.h - 1)) +
        half_y;
    c.enumerated = enumerate_insertion_points(
        c.lp, build_insertion_intervals(c.lp, c.target.w), c.target);
    return c;
}

TEST(PointScan, BoundNeverExceedsCost) {
    Rng rng(1401);
    std::size_t points = 0;
    std::size_t tight = 0;  // bound == cost: nothing pushed
    for (int trial = 0; trial < 120; ++trial) {
        const Case c = random_case(rng);
        for (const InsertionPoint& p : c.enumerated.points) {
            const double bound = cost_lower_bound_um(c.lp, p, c.target);
            for (const bool exact : {false, true}) {
                const Evaluation ev =
                    exact ? evaluate_insertion_point_exact(c.lp, p, c.target)
                          : evaluate_insertion_point_approx(c.lp, p,
                                                            c.target);
                ASSERT_TRUE(ev.feasible);
                EXPECT_LE(bound, ev.cost_um)
                    << "trial " << trial << " exact " << exact;
                tight += bound == ev.cost_um ? 1 : 0;
            }
            ++points;
        }
    }
    EXPECT_GT(points, 1000u);
    EXPECT_GT(tight, 0u);  // the bound is attained, so +1 site breaks it
}

TEST(PointScan, InfeasiblePointHasInfiniteBound) {
    Database db = empty_design(2, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    const LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 2});
    TargetSpec t;
    t.w = 2;
    t.h = 1;
    InsertionPoint p;
    p.gaps = {0};
    p.lo = 5;
    p.hi = 4;
    EXPECT_EQ(cost_lower_bound_um(lp, p, t),
              std::numeric_limits<double>::infinity());
}

TEST(PointScan, PrunedEqualsExhaustiveSerialScan) {
    Rng rng(1402);
    EvalScratch scratch;
    std::size_t pruned = 0;  // problems where the bound skipped points
    std::size_t tied = 0;    // problems whose least cost is shared
    for (int trial = 0; trial < 240; ++trial) {
        const Case c = random_case(rng);
        const std::vector<InsertionPoint>& points = c.enumerated.points;
        ASSERT_FALSE(c.enumerated.truncated);
        for (const bool exact : {false, true}) {
            const PointScan full = exhaustive_scan(c.lp, points, c.target,
                                                   exact);
            const PointScan scan = scan_insertion_points(
                c.lp, points, c.target, exact, scratch);
            const std::string where = "trial " + std::to_string(trial) +
                                      " exact " + std::to_string(exact);
            ASSERT_EQ(scan.index, full.index) << where;
            ASSERT_EQ(scan.scored + scan.skipped, points.size()) << where;
            if (full.found()) {
                EXPECT_EQ(scan.eval.xt, full.eval.xt) << where;
                EXPECT_EQ(scan.eval.cost_um, full.eval.cost_um) << where;
            }
            pruned += scan.scored < points.size() ? 1 : 0;
            if (full.found()) {
                std::size_t at_min = 0;
                for (const InsertionPoint& p : points) {
                    const Evaluation ev =
                        exact ? evaluate_insertion_point_exact(c.lp, p,
                                                               c.target)
                              : evaluate_insertion_point_approx(c.lp, p,
                                                                c.target);
                    at_min += ev.cost_um == full.eval.cost_um ? 1 : 0;
                }
                tied += at_min > 1 ? 1 : 0;
            }
        }
    }
    // The corpus exercises what the exactness argument depends on.
    EXPECT_GT(pruned, 300u);
    EXPECT_GT(tied, 40u);
}

TEST(PointScan, OnePassScoresOnlyPointsThatCanStillWin) {
    // The same 240 problems: the scan scores exactly the points the rule
    // admits, with "best so far" taken over the whole pass.
    Rng rng(1402);
    EvalScratch scratch;
    std::size_t long_exact = 0;  // exact problems of more than 16 points
    for (int trial = 0; trial < 240; ++trial) {
        const Case c = random_case(rng);
        const std::vector<InsertionPoint>& points = c.enumerated.points;
        for (const bool exact : {false, true}) {
            const PointScan scan = scan_insertion_points(
                c.lp, points, c.target, exact, scratch);
            EXPECT_EQ(scan.scored,
                      one_pass_scored(c.lp, points, c.target, exact))
                << "trial " << trial << " exact " << exact << ", "
                << points.size() << " points";
            long_exact += exact && points.size() > 16 ? 1 : 0;
        }
    }
    EXPECT_GT(long_exact, 100u);
}

TEST(PointScan, EarlierPointTyingTheSeedStillWins) {
    // One row: c1 at [11,15), c2 at [15,40); target w=2 prefers x=12.
    //  point 0 (left of c1):     x <= 9, cost = bound = 3 sites
    //  point 1 (between c1, c2): pushes c1 3 sites left, cost 3, bound 0
    //  point 2 (right of c2):    bound 17 sites
    // Point 1 is the seed. Point 0's bound equals the seed's cost, so it
    // must still be scored: it ties the seed and comes first.
    Database db = empty_design(1, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "c1", 11, 0, 4, 1);
    add_placed(db, grid, "c2", 15, 0, 25, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 1});
    compute_minmax_placement(lp);
    TargetSpec t;
    t.w = 2;
    t.h = 1;
    t.pref_x = 12.0;
    t.pref_y = 0.0;
    const EnumerationResult er =
        enumerate_insertion_points(lp, build_insertion_intervals(lp, t.w), t);
    ASSERT_EQ(er.points.size(), 3u);
    EXPECT_EQ(cost_lower_bound_um(lp, er.points[0], t),
              3 * lp.site_w_um());
    EXPECT_EQ(cost_lower_bound_um(lp, er.points[1], t), 0.0);
    EvalScratch scratch;
    for (const bool exact : {false, true}) {
        const PointScan scan =
            scan_insertion_points(lp, er.points, t, exact, scratch);
        ASSERT_TRUE(scan.found());
        EXPECT_EQ(scan.index, 0u) << "exact " << exact;
        EXPECT_EQ(scan.eval.xt, 9);
        EXPECT_EQ(scan.eval.cost_um, 3 * lp.site_w_um());
        EXPECT_EQ(scan.scored, 2u);  // point 2 is excluded by the bound
        EXPECT_EQ(scan.skipped, 1u);
    }
}

TEST(PointScan, EmptyAndAllInfeasibleInputs) {
    Database db = empty_design(1, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    const LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 1});
    TargetSpec t;
    t.w = 2;
    t.h = 1;
    EvalScratch scratch;
    const PointScan none = scan_insertion_points(lp, {}, t, false, scratch);
    EXPECT_FALSE(none.found());
    EXPECT_EQ(none.scored + none.skipped, 0u);

    std::vector<InsertionPoint> infeasible(3);
    for (InsertionPoint& p : infeasible) {
        p.gaps = {0};
        p.lo = 7;
        p.hi = 6;
    }
    for (const bool exact : {false, true}) {
        const PointScan scan =
            scan_insertion_points(lp, infeasible, t, exact, scratch);
        EXPECT_FALSE(scan.found());
        EXPECT_EQ(scan.scored + scan.skipped, infeasible.size());
    }
}

TEST(PointScan, PlanCountsEnumeratedAndScoredPoints) {
    // mll_plan's num_points stays the enumerated count (what the
    // points_evaluated counters sum); num_scored counts full evaluations.
    Rng rng(1403);
    RandomDesign d = random_legal_design(rng, 12, 120, 220, 0.2);
    const CellId t = add_unplaced(d.db, "t", 60.0, 6.0, 3, 1);
    for (const bool exact : {false, true}) {
        MllOptions opts;
        opts.exact_evaluation = exact;
        const MllPlan plan = mll_plan(d.db, d.grid, t, 60.0, 6.0, opts);
        ASSERT_TRUE(plan.success());

        const Cell& cell = d.db.cell(t);
        TargetSpec target;
        target.w = cell.width();
        target.h = cell.height();
        target.pref_x = 60.0;
        target.pref_y = 6.0;
        LocalProblem lp = extract_local_region(
            d.db, d.grid,
            Rect{60 - opts.rx, 6 - opts.ry,
                 static_cast<SiteCoord>(2 * opts.rx + target.w),
                 static_cast<SiteCoord>(2 * opts.ry + target.h)});
        compute_minmax_placement(lp);
        const EnumerationResult er = enumerate_insertion_points(
            lp, build_insertion_intervals(lp, target.w), target);
        EXPECT_EQ(plan.num_points, er.points.size());
        EXPECT_GT(plan.num_scored, 0u);
        EXPECT_LT(plan.num_scored, plan.num_points);
        EXPECT_EQ(plan.audits_run, 0u);

        opts.audit = AuditLevel::kFull;  // region, problem and scan audits
        const MllPlan audited = mll_plan(d.db, d.grid, t, 60.0, 6.0, opts);
        EXPECT_EQ(audited.audits_run, 3u);
        EXPECT_EQ(audited.x, plan.x);
        EXPECT_EQ(audited.num_scored, plan.num_scored);
    }
}

}  // namespace
}  // namespace mrlg::test
