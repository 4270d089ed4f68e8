#include <gtest/gtest.h>

#include "legalize/exact_local.hpp"
#include "legalize/ilp_local.hpp"
#include "legalize/minmax_placement.hpp"
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

TEST(IlpLocal, EmptyRowPlacesAtPreference) {
    Database db = empty_design(2, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 2});
    const TargetSpec t = make_target(4, 1, 10.0, 0.0);
    const IlpLocalResult r = solve_local_ilp(lp, t);
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.cost_um, 0.0, 1e-6);
    EXPECT_NEAR(r.x_target, 10.0, 1e-6);
    EXPECT_EQ(r.y_base, 0);
}

TEST(IlpLocal, PushesNeighbourWhenTight) {
    // One cell at [0,5); total row [0,12); target w4 wants x=0.
    // Optimum: target at 0, cell pushed to 4 → cost 4 sites... or target
    // at 5, cost 5. ILP must find 4.
    Database db = empty_design(1, 12);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 12, 1});
    const TargetSpec t = make_target(4, 1, 0.0, 0.0);
    const IlpLocalResult r = solve_local_ilp(lp, t);
    ASSERT_TRUE(r.feasible);
    EXPECT_NEAR(r.cost_um / db.floorplan().site_w_um(), 4.0, 1e-6);
}

TEST(IlpLocal, RespectsRailParity) {
    Database db = empty_design(4, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 4});
    const TargetSpec t = make_target(4, 2, 10.0, 1.0, RailPhase::kEven);
    const IlpLocalResult r = solve_local_ilp(lp, t);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.y_base % 2, 0);

    EnumerationOptions relaxed;
    relaxed.check_rail = false;
    const IlpLocalResult r2 = solve_local_ilp(lp, t, relaxed);
    ASSERT_TRUE(r2.feasible);
    EXPECT_EQ(r2.y_base, 1);
}

TEST(IlpLocal, InfeasibleWhenRegionFull) {
    Database db = empty_design(1, 12);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 6, 1);
    add_placed(db, grid, "b", 6, 0, 6, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 12, 1});
    const TargetSpec t = make_target(4, 1, 3.0, 0.0);
    EXPECT_FALSE(solve_local_ilp(lp, t).feasible);
}

TEST(IlpLocal, MultiRowConsistencyViaSharedVariable) {
    // Fig. 8 situation: double cell 'a' in the middle. The ILP must not
    // produce a solution straddling it.
    Database db = empty_design(2, 24);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 10, 0, 4, 2);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 24, 2});
    const TargetSpec t = make_target(6, 2, 9.0, 0.0);
    const IlpLocalResult r = solve_local_ilp(lp, t);
    ASSERT_TRUE(r.feasible);
    // Either fully left (x<=?) or fully right of a's final position; with
    // pref 9 the cheapest is pushing a right and sitting left, or sitting
    // right at 14 etc. Cross-validate exact value against the oracle.
    LocalProblem lp2 = extract_local_region(db, grid, Rect{0, 0, 24, 2});
    const ExactLocalSolution ex = solve_local_exact(lp2, t);
    ASSERT_TRUE(ex.feasible);
    EXPECT_NEAR(r.cost_um, ex.cost_um, 1e-6);
}

TEST(IlpLocal, MatchesExactOracleRandomized) {
    // The headline validation (DESIGN.md #13/#14): the MIP solved by our
    // own simplex+B&B agrees with the exhaustive exact local solver on the
    // optimal displacement, across random local problems.
    Rng rng(131);
    int compared = 0;
    for (int trial = 0; trial < 25; ++trial) {
        RandomDesign d = random_legal_design(rng, 6, 40, 18, 0.35);
        const TargetSpec t = make_target(
            static_cast<SiteCoord>(rng.uniform(1, 4)),
            static_cast<SiteCoord>(rng.uniform(1, 2)),
            static_cast<double>(rng.uniform(0, 36)),
            static_cast<double>(rng.uniform(0, 4)),
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
        LocalProblem lp_ilp =
            extract_local_region(d.db, d.grid, Rect{0, 0, 40, 6});
        LocalProblem lp_ex =
            extract_local_region(d.db, d.grid, Rect{0, 0, 40, 6});
        const IlpLocalResult ilp_r = solve_local_ilp(lp_ilp, t);
        const ExactLocalSolution ex_r = solve_local_exact(lp_ex, t);
        EXPECT_EQ(ilp_r.feasible, ex_r.feasible) << "trial " << trial;
        if (ilp_r.feasible && ex_r.feasible) {
            EXPECT_NEAR(ilp_r.cost_um, ex_r.cost_um, 1e-5)
                << "trial " << trial;
            ++compared;
        }
    }
    EXPECT_GT(compared, 10);
}

TEST(ExactLocal, PicksGloballyBestPoint) {
    // Two candidate gaps: a tight one near pref and a free one far away.
    // Exact solver must weigh push cost vs target displacement.
    Database db = empty_design(1, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 8, 0, 4, 1);
    add_placed(db, grid, "b", 12, 0, 4, 1);
    // Gap (a,b) needs pushing; left/right of the pair is free.
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 40, 1});
    const TargetSpec t = make_target(4, 1, 10.0, 0.0);
    const ExactLocalSolution s = solve_local_exact(lp, t);
    ASSERT_TRUE(s.feasible);
    // Optimal: insert between a and b at 10: a → 6 (push 2), b → 14
    // (push 2), target displacement 0 → cost 4. Alternatives: x=4 left of
    // a (cost 6+... |4-10|=6) or x=16 right of b (6). So cost 4.
    EXPECT_NEAR(s.cost_um / db.floorplan().site_w_um(), 4.0, 1e-6);
}

}  // namespace
}  // namespace mrlg::test
