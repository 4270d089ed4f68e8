#include <gtest/gtest.h>

#include "legalize/evaluation.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TargetSpec make_target(SiteCoord w, SiteCoord h, double px, double py,
                       RailPhase phase = RailPhase::kEven) {
    TargetSpec t;
    t.w = w;
    t.h = h;
    t.pref_x = px;
    t.pref_y = py;
    t.rail_phase = phase;
    return t;
}

// ---------------- hinge minimizer ----------------

TEST(HingeMin, NoHingesSnapsToPref) {
    HingeSet h;
    h.pref = 12.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 12);
    EXPECT_NEAR(c, 0.0, 1e-12);
}

TEST(HingeMin, PrefOutsideRangeClamped) {
    HingeSet h;
    h.pref = 100.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 40);
    EXPECT_NEAR(c, 60.0, 1e-12);
}

TEST(HingeMin, FractionalPrefPicksNearestInteger) {
    HingeSet h;
    h.pref = 10.4;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 10);
    EXPECT_NEAR(c, 0.4, 1e-12);
}

TEST(HingeMin, LeftHingePullsRight) {
    // Left neighbour critical at 20: positions below 20 cost (20-x).
    HingeSet h;
    h.a = {20};
    h.pref = 15.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    // Balance: moving from 15 to 20 trades |x-pref| 1:1 against the hinge
    // — any x in [15,20] costs 5. Tie-break prefers closeness to pref.
    EXPECT_EQ(x, 15);
    EXPECT_NEAR(c, 5.0, 1e-12);
}

TEST(HingeMin, MajorityWins) {
    HingeSet h;
    h.a = {20, 20, 20};  // three cells want x >= 20
    h.pref = 15.0;
    const auto [x, c] = minimize_hinge_cost(h, 0, 40);
    EXPECT_EQ(x, 20);
    EXPECT_NEAR(c, 5.0, 1e-12);
}

TEST(HingeMin, MatchesBruteForceRandomized) {
    Rng rng(53);
    for (int t = 0; t < 200; ++t) {
        HingeSet h;
        const int na = static_cast<int>(rng.uniform(0, 5));
        const int nb = static_cast<int>(rng.uniform(0, 5));
        for (int i = 0; i < na; ++i) {
            h.a.push_back(static_cast<SiteCoord>(rng.uniform(-20, 60)));
        }
        for (int i = 0; i < nb; ++i) {
            h.b.push_back(static_cast<SiteCoord>(rng.uniform(-20, 60)));
        }
        h.pref = static_cast<double>(rng.uniform(-10, 50)) +
                 rng.uniform01();
        const SiteCoord lo = static_cast<SiteCoord>(rng.uniform(-10, 20));
        const SiteCoord hi =
            lo + static_cast<SiteCoord>(rng.uniform(0, 40));
        const auto [x, c] = minimize_hinge_cost(h, lo, hi);
        EXPECT_GE(x, lo);
        EXPECT_LE(x, hi);
        const double ref = brute_force_hinge_min(h.a, h.b, h.pref, lo, hi);
        EXPECT_NEAR(c, ref, 1e-9) << "trial " << t;
    }
}

// ---------------- approximate evaluation ----------------

TEST(EvalApprox, FreeGapZeroCost) {
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "b", 50, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 20.0, 0.0);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};
    p.lo = 5;
    p.hi = 46;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_EQ(ev.xt, 20);
    EXPECT_NEAR(ev.cost_um, 0.0, 1e-9);
}

TEST(EvalApprox, CountsNeighbourDisplacement) {
    // Target wants x=2 but the left neighbour ends at 5: either the target
    // moves right or the neighbour moves left.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 2.0, 0.0);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};  // right of a
    p.lo = 0;      // a can pack to xl=0? no: gap (a,R): lo = xl_a + 5 = 5
    p.lo = 5;
    p.hi = 56;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_EQ(ev.xt, 5);
    // cost = |5-2| site widths (x in microns / site_w = 3 sites).
    EXPECT_NEAR(ev.cost_um / lp.site_w_um(), 3.0, 1e-9);
}

TEST(EvalApprox, YDisplacementIncluded) {
    Database db = empty_design(4, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 4});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(4, 1, 10.0, 2.6);
    InsertionPoint p;
    p.k0 = 0;  // absolute row 0, pref row 2.6 → dy = 2.6 rows
    p.gaps = {0};
    p.lo = 0;
    p.hi = 56;
    const Evaluation ev = evaluate_insertion_point_approx(lp, p, t);
    ASSERT_TRUE(ev.feasible);
    EXPECT_NEAR(ev.cost_um, 2.6 * lp.site_h_um(), 1e-9);
}

// ---------------- exact critical positions ----------------

TEST(CriticalPositions, ChainOfLeftCells) {
    // Cells a(0,w5) b(5,w5) c(10,w5); target inserted right of c.
    // xa_c = 15, xa_b = xa_c - x_c + x_b + w_b = 15-10+5+5=15? Chain with
    // no slack: xa_b = x_b + w_b + (xa_c - x_c) = 5+5+5 = 15, xa_a = 15.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 5, 0, 5, 1);
    const CellId c = add_placed(db, grid, "c", 10, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {3};
    p.lo = 15;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(c))], 15);
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(b))], 15);
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(a))], 15);
    // No push-right thresholds (nothing right of the gap).
    EXPECT_EQ(cp.xb[static_cast<std::size_t>(idx(a))], kSiteCoordMax);
}

TEST(CriticalPositions, SlackBreaksChains) {
    // a(0,w5), c(20,w5): pushing c left only reaches a when the target
    // goes below a's edge plus the gap.
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId c = add_placed(db, grid, "c", 20, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {2};  // right of c
    p.lo = 10;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(c))], 25);
    // xa_a = x_a + w_a + (xa_c - x_c) = 0+5+5 = 10.
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(a))], 10);
}

TEST(CriticalPositions, MultiRowPropagatesAcrossRows) {
    // Double-height m couples rows: pushing m in row 0 pushes s in row 1.
    Database db = empty_design(2, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId s = add_placed(db, grid, "s", 0, 1, 5, 1);
    const CellId m = add_placed(db, grid, "m", 5, 0, 4, 2);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 2});
    compute_minmax_placement(lp);
    // Single-row target in row 0, right of m.
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1};
    p.lo = 9;
    p.hi = 56;
    const CriticalPositions cp = compute_critical_positions(lp, p, 4);
    auto idx = [&](CellId id) {
        for (int i = 0; i < lp.num_cells(); ++i) {
            if (lp.cell(i).id == id) return i;
        }
        return -1;
    };
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(m))], 9);
    // s is pushed via m: xa_s = x_s + w_s + (xa_m - x_m) = 0+5+4 = 9.
    EXPECT_EQ(cp.xa[static_cast<std::size_t>(idx(s))], 9);
}

// ---------------- exact vs realization ----------------

TEST(EvalExact, CostMatchesRealizedDisplacement) {
    // Property: for every enumerated point, the exact evaluation's cost
    // equals target-pref displacement + realized local displacement.
    Rng rng(61);
    for (int trial = 0; trial < 20; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 100, 60, 0.3);
        LocalProblem lp =
            extract_local_region(d.db, d.grid, Rect{10, 0, 70, 8});
        compute_minmax_placement(lp);
        const TargetSpec t = make_target(
            static_cast<SiteCoord>(rng.uniform(1, 5)),
            static_cast<SiteCoord>(rng.uniform(1, 2)),
            static_cast<double>(rng.uniform(10, 70)),
            static_cast<double>(rng.uniform(0, 7)),
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const auto& pt : res.points) {
            const Evaluation ev =
                evaluate_insertion_point_exact(lp, pt, t);
            ASSERT_TRUE(ev.feasible);
            const Realization real =
                realize_insertion(lp, pt, ev.xt, t.w);
            const double real_cost =
                real.moved_sites * lp.site_w_um() +
                std::abs(static_cast<double>(ev.xt) - t.pref_x) *
                    lp.site_w_um() +
                std::abs(static_cast<double>(lp.y0() + pt.k0) - t.pref_y) *
                    lp.site_h_um();
            EXPECT_NEAR(ev.cost_um, real_cost, 1e-6)
                << "trial " << trial << " point k0=" << pt.k0;
        }
    }
}

TEST(EvalExact, ExactNeverWorseThanApproxChoice) {
    // The approximate evaluator may misjudge a point's cost, but for any
    // fixed point the exact optimum x is at least as good as realizing the
    // approximate x.
    Rng rng(67);
    for (int trial = 0; trial < 10; ++trial) {
        RandomDesign d = random_legal_design(rng, 6, 80, 40, 0.3);
        LocalProblem lp =
            extract_local_region(d.db, d.grid, Rect{0, 0, 80, 6});
        compute_minmax_placement(lp);
        const TargetSpec t =
            make_target(3, 1, static_cast<double>(rng.uniform(0, 75)),
                        static_cast<double>(rng.uniform(0, 5)));
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const auto& pt : res.points) {
            const Evaluation ex = evaluate_insertion_point_exact(lp, pt, t);
            const Evaluation ap =
                evaluate_insertion_point_approx(lp, pt, t);
            ASSERT_TRUE(ex.feasible && ap.feasible);
            const Realization at_approx =
                realize_insertion(lp, pt, ap.xt, t.w);
            const double approx_real_cost =
                at_approx.moved_sites * lp.site_w_um() +
                std::abs(static_cast<double>(ap.xt) - t.pref_x) *
                    lp.site_w_um() +
                std::abs(static_cast<double>(lp.y0() + pt.k0) - t.pref_y) *
                    lp.site_h_um();
            EXPECT_LE(ex.cost_um, approx_real_cost + 1e-6);
        }
    }
}

}  // namespace
}  // namespace mrlg::test
