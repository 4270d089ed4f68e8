#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "legalize/enumeration.hpp"
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
        const auto [ref_x, ref_c] =
            brute_force_hinge_min(h.a, h.b, h.pref, lo, hi);
        EXPECT_EQ(x, ref_x) << "trial " << t;
        EXPECT_NEAR(c, ref_c, 1e-9) << "trial " << t;
    }
}

TEST(HingeMin, BitIdenticalToSortAndSearchReference) {
    // The merge walk visits the reference's candidates in the same order
    // with exact integer sums, so (x, cost) agree bit for bit — also with
    // duplicate breakpoints, integral and half-integral prefs, breakpoints
    // outside [lo, hi] and one-point ranges.
    Rng rng(54);
    for (int t = 0; t < 2000; ++t) {
        HingeSet h;
        const int na = static_cast<int>(rng.uniform(0, 12));
        const int nb = static_cast<int>(rng.uniform(0, 12));
        for (int i = 0; i < na; ++i) {
            h.a.push_back(static_cast<SiteCoord>(rng.uniform(-30, 70)));
        }
        for (int i = 0; i < nb; ++i) {
            h.b.push_back(static_cast<SiteCoord>(rng.uniform(-30, 70)));
        }
        const double frac = t % 4 == 0   ? 0.0
                            : t % 4 == 1 ? 0.5
                                         : rng.uniform01();
        h.pref = static_cast<double>(rng.uniform(-40, 80)) + frac;
        const SiteCoord lo = static_cast<SiteCoord>(rng.uniform(-10, 30));
        const SiteCoord hi =
            lo + static_cast<SiteCoord>(t % 5 == 0 ? 0 : rng.uniform(0, 50));
        EXPECT_EQ(minimize_hinge_cost(h, lo, hi),
                  reference_minimize_hinge_cost(h, lo, hi))
            << "trial " << t;
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

TEST(EvalExact, PointStraddlingADoubleRowCellIsAnAssertion) {
    // d spans rows 0-1. The hand-built point puts the gap left of d on
    // row 0 and right of it on row 1, so d is on both push chains.
    // Enumeration never emits such a point; the evaluator refuses it.
    Database db = empty_design(2, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "d", 20, 0, 4, 2);
    add_placed(db, grid, "b", 40, 1, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 2});
    compute_minmax_placement(lp);
    const TargetSpec t = make_target(3, 2, 22.0, 0.0);
    InsertionPoint p;
    p.k0 = 0;
    p.gaps = {1, 1};  // row 0: between a and d; row 1: between d and b
    p.lo = 10;
    p.hi = 30;
    ASSERT_FALSE(insertion_point_consistent(lp, p));
    try {
        (void)evaluate_insertion_point_exact(lp, p, t);
        FAIL() << "expected AssertionError";
    } catch (const AssertionError& e) {
        EXPECT_NE(std::string(e.what()).find("both push directions"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------- push chains vs whole-window references ----------------

TEST(PushChain, KernelsBitIdenticalToWholeWindowReferences) {
    // Random windows from low to high density with cells up to three rows
    // tall: for every enumerated point, the push-chain critical positions
    // equal the whole-window sweeps', the exact evaluation equals the
    // reference hinges fed to the reference minimizer, and realization at
    // lo, at hi and at the evaluator's choice equals the whole-window
    // sweeps'. One scratch of each kind serves every call, as in MLL.
    Rng rng(97);
    EvalScratch eval_scratch;
    Realization real;
    RealizationScratch real_scratch;
    std::size_t points = 0;
    std::size_t multi_row_points = 0;
    std::size_t pushed = 0;
    const int cells_per_design[] = {12, 30, 50, 70, 85};
    for (int trial = 0; trial < 40; ++trial) {
        RandomDesign d = random_legal_design(
            rng, 8, 90, cells_per_design[trial % 5], 0.35, 3);
        const Rect window{static_cast<SiteCoord>(rng.uniform(-5, 30)),
                          static_cast<SiteCoord>(rng.uniform(-1, 2)),
                          static_cast<SiteCoord>(rng.uniform(30, 90)),
                          static_cast<SiteCoord>(rng.uniform(4, 9))};
        LocalProblem lp = extract_local_region(d.db, d.grid, window);
        compute_minmax_placement(lp);
        const TargetSpec t = make_target(
            static_cast<SiteCoord>(rng.uniform(1, 5)),
            static_cast<SiteCoord>(rng.uniform(1, 3)),
            static_cast<double>(rng.uniform(0, 85)) + rng.uniform01(),
            static_cast<double>(rng.uniform(0, 6)),
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const InsertionPoint& pt : res.points) {
            ++points;
            multi_row_points += t.h > 1 ? 1 : 0;
            const CriticalPositions ref =
                reference_critical_positions(lp, pt, t.w);
            compute_critical_positions(lp, pt, t.w, eval_scratch.cp);
            const CriticalPositions& cp = eval_scratch.cp;
            EXPECT_EQ(cp.xa, ref.xa) << "trial " << trial;
            EXPECT_EQ(cp.xb, ref.xb) << "trial " << trial;
            std::vector<int> left_chain;
            std::vector<int> right_chain;
            HingeSet h;
            h.pref = t.pref_x;
            for (int i = lp.num_cells(); i-- > 0;) {
                if (ref.xa[static_cast<std::size_t>(i)] != kSiteCoordMin) {
                    left_chain.push_back(i);
                }
            }
            for (int i = 0; i < lp.num_cells(); ++i) {
                const SiteCoord xa = ref.xa[static_cast<std::size_t>(i)];
                const SiteCoord xb = ref.xb[static_cast<std::size_t>(i)];
                if (xa != kSiteCoordMin) {
                    h.a.push_back(xa);
                } else if (xb != kSiteCoordMax) {
                    h.b.push_back(xb);
                    right_chain.push_back(i);
                }
            }
            EXPECT_EQ(cp.left_chain, left_chain) << "trial " << trial;
            EXPECT_EQ(cp.right_chain, right_chain) << "trial " << trial;

            const auto ref_min = reference_minimize_hinge_cost(h, pt.lo, pt.hi);
            EXPECT_EQ(minimize_hinge_cost(h, pt.lo, pt.hi, eval_scratch),
                      ref_min)
                << "trial " << trial;
            const Evaluation ev =
                evaluate_insertion_point_exact(lp, pt, t, eval_scratch);
            ASSERT_TRUE(ev.feasible);
            EXPECT_EQ(ev.xt, ref_min.first) << "trial " << trial;
            EXPECT_EQ(ev.cost_um, point_cost_um(lp, pt, t, ref_min.second))
                << "trial " << trial;

            for (const SiteCoord x : {pt.lo, pt.hi, ev.xt}) {
                const Realization want =
                    reference_realize_insertion(lp, pt, x, t.w);
                realize_insertion(lp, pt, x, t.w, real, real_scratch);
                ASSERT_TRUE(real.ok);
                EXPECT_EQ(real.xt, x);
                EXPECT_EQ(real.new_x, want.new_x)
                    << "trial " << trial << " xt " << x;
                EXPECT_EQ(real.moved_sites, want.moved_sites)
                    << "trial " << trial << " xt " << x;
                pushed += real.moved_sites > 0.0 ? 1 : 0;
            }
        }
    }
    // The sample is not vacuous: multi-row targets and pushes occur.
    EXPECT_GT(points, 1000u);
    EXPECT_GT(multi_row_points, 100u);
    EXPECT_GT(pushed, 500u);
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
