#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/audit_local.hpp"
#include "eval/legality.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/mll.hpp"
#include "qa/snapshot.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TEST(Mll, PlacesIntoEmptyRegionAtPreferredSpot) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_unplaced(db, "t", 40.0, 5.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.x, 40);
    EXPECT_EQ(r.y, 5);
    EXPECT_TRUE(db.cell(t).placed());
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_NEAR(r.real_cost_um, 0.0, 1e-9);
}

TEST(Mll, ShiftsNeighboursMinimally) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Row 5 is packed around x=40; target forces a small shuffle.
    const CellId a = add_placed(db, grid, "a", 36, 5, 4, 1);
    const CellId b = add_placed(db, grid, "b", 40, 5, 4, 1);
    const CellId c = add_placed(db, grid, "c", 44, 5, 4, 1);
    const CellId t = add_unplaced(db, "t", 40.0, 5.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y, 5);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
    // All four cells now distinct and ordered on row 5.
    static_cast<void>(a);
    static_cast<void>(b);
    static_cast<void>(c);
}

TEST(Mll, RespectsRailParityForDoubleHeightTarget) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t =
        add_unplaced(db, "t", 40.0, 5.0, 4, 2, RailPhase::kEven);
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y % 2, 0);  // even parity
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Mll, RelaxedRailAllowsAnyRow) {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t =
        add_unplaced(db, "t", 40.0, 5.0, 4, 2, RailPhase::kEven);
    MllOptions opts;
    opts.check_rail = false;
    const MllPlan r = mll_place(db, grid, t, 40.0, 5.0, opts);
    ASSERT_TRUE(r.success());
    EXPECT_EQ(r.y, 5);  // odd row allowed when relaxed
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
}

TEST(Mll, FailsWhenRegionFull) {
    Database db = empty_design(1, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 10, 1);
    add_placed(db, grid, "b", 10, 0, 10, 1);
    const CellId t = add_unplaced(db, "t", 5.0, 0.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 5.0, 0.0);
    EXPECT_FALSE(r.success());
    EXPECT_EQ(r.status, MllStatus::kNoInsertionPoint);
    // Abort semantics: nothing changed.
    EXPECT_FALSE(db.cell(t).placed());
    EXPECT_EQ(db.cell(db.find_cell("a")).x(), 0);
    EXPECT_EQ(db.cell(db.find_cell("b")).x(), 10);
}

TEST(Mll, FailsOffDie) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_unplaced(db, "t", 10.0, 100.0, 4, 1);
    const MllPlan r = mll_place(db, grid, t, 10.0, 100.0);
    EXPECT_FALSE(r.success());
    EXPECT_EQ(r.status, MllStatus::kNoRegion);
}

TEST(Mll, PlacedTargetAsserts) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId t = add_placed(db, grid, "t", 10, 0, 4, 1);
    EXPECT_THROW(mll_place(db, grid, t, 10.0, 0.0), AssertionError);
}

/// One packed row 5: a at [20, 40), a 2-site gap, b at [42, 62). With
/// ry = 0 the 4-site target wanting x = 40 fits only by shifting b right
/// by 2, so its plan has one move (b: 42 -> 44) and target slot [40, 44).
struct StalePlanFixture {
    Database db = empty_design(12, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    CellId b;
    CellId filler;
    CellId t;
    MllPlan plan;

    StalePlanFixture() {
        add_placed(db, grid, "a", 20, 5, 20, 1);
        b = add_placed(db, grid, "b", 42, 5, 20, 1);
        filler = add_unplaced(db, "filler", 40.0, 5.0, 2, 1);
        t = add_unplaced(db, "t", 40.0, 5.0, 4, 1);
        MllOptions opts;
        opts.ry = 0;
        plan = mll_plan(db, grid, t, 40.0, 5.0, opts);
    }

    /// A stale commit must throw naming the target and leave the
    /// placement exactly as it found it.
    void expect_checked_failure() {
        const qa::PlacementSnapshot before = qa::capture_snapshot(db, grid);
        try {
            mll_commit(db, grid, t, plan);
            ADD_FAILURE() << "a stale plan committed";
        } catch (const AssertionError& e) {
            EXPECT_NE(std::string(e.what()).find("stale MLL plan for cell " +
                                                 std::to_string(t.value())),
                      std::string::npos)
                << e.what();
        }
        EXPECT_TRUE(before == qa::capture_snapshot(db, grid))
            << qa::describe_snapshot_diff(
                   before, qa::capture_snapshot(db, grid), db);
    }
};

TEST(MllCommit, MovedBaseIsACheckedFailure) {
    StalePlanFixture f;
    ASSERT_TRUE(f.plan.success());
    ASSERT_EQ(f.plan.moves.size(), 1u);
    ASSERT_EQ(f.plan.moves[0].id, f.b);
    f.grid.remove(f.db, f.b);
    f.grid.place(f.db, f.b, 60, 5);
    f.expect_checked_failure();
}

TEST(MllCommit, OccupiedTargetSlotIsACheckedFailure) {
    StalePlanFixture f;
    ASSERT_TRUE(f.plan.success());
    ASSERT_EQ(f.plan.moves.size(), 1u);
    ASSERT_EQ(f.plan.x, 40);
    // The gap stays free before the shift, so only validation pass 2 (the
    // slot after the shift) can catch it, with b already shifted.
    f.grid.place(f.db, f.filler, 40, 5);
    f.expect_checked_failure();
}

TEST(MllCommit, ShiftOntoANewCellIsACheckedFailure) {
    StalePlanFixture f;
    ASSERT_TRUE(f.plan.success());
    ASSERT_EQ(f.plan.moves.size(), 1u);
    // The target slot [40, 44) stays free, but b's shift to [44, 64)
    // would overlap a cell placed at [62, 64) since the plan: the shift
    // itself must refuse, before anything moves.
    f.grid.place(f.db, f.filler, 62, 5);
    f.expect_checked_failure();
}

TEST(Mll, Figure5Scenario) {
    // The paper's running example (Fig. 5): a 3x2 target inserted into a
    // 4-row local region with cells a, b, c, d, e. We reproduce the
    // qualitative outcome: a feasible optimal point exists with total
    // displacement 2 sites (the paper's optimal {(2,L,c),(3,a,c),(4,a,b)}).
    Database db = empty_design(4, 10);
    SegmentGrid grid = SegmentGrid::build(db);
    // Layout loosely mirroring Fig. 5(a) (site-level positions inferred):
    // rows are 0-based here (paper rows 1-4 bottom-up).
    add_placed(db, grid, "e", 0, 0, 3, 1, RailPhase::kEven);   // row 0
    add_placed(db, grid, "c", 5, 0, 3, 1, RailPhase::kOdd);    // row 0
    add_placed(db, grid, "a", 0, 1, 2, 2, RailPhase::kOdd);    // rows 1-2
    add_placed(db, grid, "d", 6, 1, 3, 1, RailPhase::kOdd);    // row 1
    add_placed(db, grid, "b", 3, 3, 3, 1, RailPhase::kOdd);    // row 3
    const CellId t =
        add_unplaced(db, "t", 4.0, 1.0, 3, 2, RailPhase::kOdd);
    MllOptions opts;
    opts.check_rail = false;  // the figure ignores parity
    const MllPlan r = mll_place(db, grid, t, 4.0, 1.0, opts);
    ASSERT_TRUE(r.success());
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
    // Some displacement is unavoidable, but it must be small.
    EXPECT_LE(r.real_cost_um / db.floorplan().site_w_um(), 12.0);
}

TEST(Mll, ApproxAndExactBothLegalExactNoWorse) {
    Rng rng(81);
    for (int trial = 0; trial < 8; ++trial) {
        RandomDesign d = random_legal_design(rng, 10, 120, 80, 0.3);
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 5));
        const SiteCoord h = static_cast<SiteCoord>(rng.uniform(1, 2));
        const double px = static_cast<double>(rng.uniform(10, 110));
        const double py = static_cast<double>(rng.uniform(0, 9 - h));
        const RailPhase phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;

        // Run approx on one copy and exact on an identical copy.
        double costs[2] = {0, 0};
        for (int mode = 0; mode < 2; ++mode) {
            Rng rng_copy(1000 + static_cast<std::uint64_t>(trial));
            RandomDesign dd =
                random_legal_design(rng_copy, 10, 120, 80, 0.3);
            const CellId t = add_unplaced(
                dd.db, "target", px, py, w, h, phase);
            MllOptions opts;
            opts.exact_evaluation = mode == 1;
            const MllPlan r =
                mll_place(dd.db, dd.grid, t, px, py, opts);
            if (!r.success()) {
                costs[0] = costs[1] = -1;
                break;
            }
            costs[mode] = r.real_cost_um;
            LegalityOptions lopts;
            lopts.require_all_placed = false;
            EXPECT_TRUE(check_legality(dd.db, dd.grid, lopts).legal);
            EXPECT_TRUE(segment_lists_consistent(dd.db, dd.grid));
        }
        if (costs[0] >= 0) {
            EXPECT_LE(costs[1], costs[0] + 1e-6) << "trial " << trial;
        }
        static_cast<void>(d);
    }
}

TEST(Mll, ManySequentialInsertionsStayLegal) {
    Database db = empty_design(10, 120);
    SegmentGrid grid = SegmentGrid::build(db);
    Rng rng(83);
    int placed = 0;
    for (int i = 0; i < 150; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 5));
        const bool dbl = rng.chance(0.2);
        const double px = static_cast<double>(rng.uniform(0, 115));
        const double py = static_cast<double>(rng.uniform(0, 8));
        const CellId t = add_unplaced(db, "c" + std::to_string(i), px, py,
                                      w, dbl ? 2 : 1);
        const MllPlan r = mll_place(db, grid, t, px, py);
        placed += r.success() ? 1 : 0;
        if (i % 25 == 0) {
            LegalityOptions lopts;
            lopts.require_all_placed = false;
            ASSERT_TRUE(check_legality(db, grid, lopts).legal)
                << "after " << i;
            ASSERT_TRUE(segment_lists_consistent(db, grid));
        }
    }
    EXPECT_GT(placed, 140);  // density ~0.35, almost everything fits
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
}

// --- scratch reuse and buffer lifetimes ------------------------------------

void expect_same_plan(const MllPlan& a, const MllPlan& b,
                      const std::string& what) {
    EXPECT_EQ(a.status, b.status) << what;
    EXPECT_EQ(a.x, b.x) << what;
    EXPECT_EQ(a.y, b.y) << what;
    EXPECT_EQ(a.est_cost_um, b.est_cost_um) << what;
    EXPECT_EQ(a.real_cost_um, b.real_cost_um) << what;
    EXPECT_EQ(a.num_points, b.num_points) << what;
    EXPECT_EQ(a.num_local_cells, b.num_local_cells) << what;
    EXPECT_EQ(a.enumeration_truncated, b.enumeration_truncated) << what;
    ASSERT_EQ(a.moves.size(), b.moves.size()) << what;
    for (std::size_t i = 0; i < a.moves.size(); ++i) {
        EXPECT_EQ(a.moves[i].id, b.moves[i].id) << what;
        EXPECT_EQ(a.moves[i].old_x, b.moves[i].old_x) << what;
        EXPECT_EQ(a.moves[i].new_x, b.moves[i].new_x) << what;
    }
}

/// Plans the re-insertion of every cell of `d` at its global placement,
/// one at a time, lifting it out of the grid and putting it back.
/// `scratch == nullptr` plans each attempt with a fresh scratch.
std::vector<MllPlan> plan_every_cell(RandomDesign& d, const MllOptions& opts,
                                     MllScratch* scratch) {
    std::vector<MllPlan> plans;
    for (const CellId c : d.db.movable_cells()) {
        const Cell& cell = d.db.cell(c);
        const SiteCoord x = cell.x();
        const SiteCoord y = cell.y();
        d.grid.remove(d.db, c);
        plans.push_back(mll_plan(d.db, d.grid, c, cell.gp_x(), cell.gp_y(),
                                 opts, scratch));
        d.grid.place(d.db, c, x, y);
    }
    return plans;
}

TEST(MllScratch, ReuseAcrossDesignSizesMatchesFreshScratch) {
    Rng rng(17);
    // A large design, and a small one whose cells up to 6 rows tall take
    // the insertion points' spilled-gap path.
    RandomDesign large = random_legal_design(rng, 40, 400, 2000, 0.2, 4);
    RandomDesign small = random_legal_design(rng, 8, 60, 40, 0.3, 6);
    for (const bool exact : {false, true}) {
        MllOptions opts;
        opts.exact_evaluation = exact;
        const std::vector<MllPlan> fresh_large =
            plan_every_cell(large, opts, nullptr);
        const std::vector<MllPlan> fresh_small =
            plan_every_cell(small, opts, nullptr);
        const auto expect_same = [](const std::vector<MllPlan>& got,
                                    const std::vector<MllPlan>& want,
                                    const char* order) {
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                expect_same_plan(got[i], want[i],
                                 std::string(order) + " plan " +
                                     std::to_string(i));
            }
        };
        MllScratch large_first;
        expect_same(plan_every_cell(large, opts, &large_first), fresh_large,
                    "large->small");
        expect_same(plan_every_cell(small, opts, &large_first), fresh_small,
                    "large->small");
        MllScratch small_first;
        expect_same(plan_every_cell(small, opts, &small_first), fresh_small,
                    "small->large");
        expect_same(plan_every_cell(large, opts, &small_first), fresh_large,
                    "small->large");
    }
}

/// Everything MLL derives from one problem: the points and both
/// evaluations of each, and the realization of the first feasible point.
struct StageOutcome {
    std::vector<InsertionPoint> points;
    std::vector<SiteCoord> xt;
    std::vector<double> cost;
    std::vector<SiteCoord> realized;
};

StageOutcome run_stages(LocalProblem lp, const TargetSpec& target) {
    StageOutcome out;
    compute_minmax_placement(lp);
    EXPECT_TRUE(audit_local_problem(lp).ok());
    const std::vector<InsertionInterval> intervals =
        build_insertion_intervals(lp, target.w);
    out.points = enumerate_insertion_points(lp, intervals, target).points;
    for (const InsertionPoint& p : out.points) {
        for (const Evaluation& ev :
             {evaluate_insertion_point_approx(lp, p, target),
              evaluate_insertion_point_exact(lp, p, target)}) {
            out.xt.push_back(ev.xt);
            out.cost.push_back(ev.cost_um);
        }
    }
    if (!out.points.empty()) {
        out.realized = realize_insertion(lp, out.points[0], out.xt[0],
                                         target.w)
                           .new_x;
    }
    return out;
}

void expect_same_outcome(const StageOutcome& a, const StageOutcome& b) {
    EXPECT_EQ(a.points, b.points);
    EXPECT_EQ(a.xt, b.xt);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.realized, b.realized);
}

struct LifetimeFixture {
    RandomDesign d;
    Rect window{30, 1, 70, 9};
    TargetSpec target;

    LifetimeFixture() : d(make()) {
        target.w = 3;
        target.h = 2;
        target.pref_x = 62.5;
        target.pref_y = 4.0;
        target.rail_phase = RailPhase::kOdd;
    }
    static RandomDesign make() {
        Rng rng(29);
        return random_legal_design(rng, 12, 140, 220, 0.3, 3);
    }
};

TEST(MllScratch, CopiedOrMovedProblemOutlivesItsSource) {
    LifetimeFixture f;
    const StageOutcome want = run_stages(
        extract_local_region(f.d.db, f.d.grid, f.window), f.target);
    ASSERT_GT(want.points.size(), 10u);

    auto copy_src = std::make_unique<LocalProblem>(
        extract_local_region(f.d.db, f.d.grid, f.window));
    const LocalProblem copied = *copy_src;
    copy_src.reset();
    expect_same_outcome(run_stages(copied, f.target), want);

    auto move_src = std::make_unique<LocalProblem>(
        extract_local_region(f.d.db, f.d.grid, f.window));
    const LocalProblem moved = std::move(*move_src);
    move_src.reset();
    expect_same_outcome(run_stages(moved, f.target), want);
}

TEST(MllScratch, CopiedOrMovedRegionOutlivesItsSource) {
    LifetimeFixture f;
    const StageOutcome want = run_stages(
        extract_local_region(f.d.db, f.d.grid, f.window), f.target);

    // Extracted in place, as mll_plan does, into a problem and through a
    // scratch that are both refilled right after, so a copy that kept
    // pointing into either would change under us too.
    WindowScratch scratch;
    auto source = std::make_unique<LocalProblem>();
    extract_local_region(f.d.db, f.d.grid, f.window, 0, scratch, *source);
    const LocalProblem copied = *source;
    const LocalProblem moved = std::move(*source);
    extract_local_region(f.d.db, f.d.grid, Rect{0, 0, 20, 3}, 0, scratch,
                         *source);
    source.reset();

    for (const LocalProblem* lp : {&copied, &moved}) {
        EXPECT_TRUE(audit_local_region(f.d.db, f.d.grid, *lp).ok());
        expect_same_outcome(run_stages(*lp, f.target), want);
    }
}

}  // namespace
}  // namespace mrlg::test
