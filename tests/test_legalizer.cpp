#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// Scattered design: cells carry gp positions but are unplaced.
Database scattered_design(Rng& rng, SiteCoord rows, SiteCoord sites,
                          int singles, int doubles) {
    Database db = empty_design(rows, sites);
    for (int i = 0; i < singles; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 7));
        add_unplaced(db, "s" + std::to_string(i),
                     rng.uniform01() * (sites - w),
                     rng.uniform01() * (rows - 1), w, 1);
    }
    for (int i = 0; i < doubles; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        add_unplaced(db, "d" + std::to_string(i),
                     rng.uniform01() * (sites - w),
                     rng.uniform01() * (rows - 2), w, 2);
    }
    return db;
}

TEST(NearestAligned, RoundsAndClamps) {
    Database db = empty_design(10, 100);
    const CellId c = db.add_cell(Cell("c", 4, 1));
    EXPECT_EQ(nearest_aligned_position(db, c, 10.4, 3.6, true),
              (Point{10, 4}));
    EXPECT_EQ(nearest_aligned_position(db, c, -5.0, 3.0, true),
              (Point{0, 3}));
    EXPECT_EQ(nearest_aligned_position(db, c, 200.0, 30.0, true),
              (Point{96, 9}));
}

TEST(NearestAligned, ParityAdjustedForEvenHeight) {
    Database db = empty_design(10, 100);
    const CellId d =
        db.add_cell(Cell("d", 4, 2, RailPhase::kEven));
    // Preferred row 3 (odd) → nearest even row (2 or 4).
    const Point p = nearest_aligned_position(db, d, 10.0, 3.2, true);
    EXPECT_EQ(p.y % 2, 0);
    EXPECT_TRUE(p.y == 2 || p.y == 4);
    // Relaxed: keeps row 3.
    EXPECT_EQ(nearest_aligned_position(db, d, 10.0, 3.2, false).y, 3);
}

TEST(NearestAligned, ParityAtDieTop) {
    Database db = empty_design(6, 100);
    const CellId d = db.add_cell(Cell("d", 4, 2, RailPhase::kEven));
    const Point p = nearest_aligned_position(db, d, 10.0, 5.9, true);
    EXPECT_EQ(p.y, 4);  // max_y = 4 and parity even
}

TEST(Legalizer, EmptyDesignSucceedsTrivially) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_EQ(s.num_cells, 0u);
}

TEST(Legalizer, LegalizesScatteredDesign) {
    Rng rng(91);
    Database db = scattered_design(rng, 12, 150, 150, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_EQ(s.unplaced, 0u);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
    EXPECT_GT(s.direct_placements, 0u);
    EXPECT_GT(s.mll_successes, 0u);
}

TEST(Legalizer, DeterministicForFixedSeed) {
    for (int run = 0; run < 2; ++run) {
        static std::vector<Point> first_positions;
        Rng rng(93);
        Database db = scattered_design(rng, 10, 120, 100, 15);
        SegmentGrid grid = SegmentGrid::build(db);
        LegalizerOptions opts;
        opts.seed = 5;
        ASSERT_TRUE(legalize_placement(db, grid, opts).success);
        std::vector<Point> positions;
        for (const Cell& c : db.cells()) {
            positions.push_back(c.pos());
        }
        if (run == 0) {
            first_positions = positions;
        } else {
            EXPECT_EQ(first_positions.size(), positions.size());
            for (std::size_t i = 0; i < positions.size(); ++i) {
                EXPECT_EQ(first_positions[i], positions[i]);
            }
        }
    }
}

TEST(Legalizer, HighDensityNeedsRetryRounds) {
    // Density ~0.85: the first pass cannot place everything; the random
    // retry rounds of Algorithm 1 must finish the job.
    Rng rng(97);
    Database db = scattered_design(rng, 10, 100, 180, 10);
    // area ≈ 180*4.5 + 10*2*2.5 = 860 of 1000.
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_TRUE(s.success) << s.unplaced << " unplaced";
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Legalizer, RespectsRailConstraintByDefault) {
    Rng rng(101);
    Database db = scattered_design(rng, 12, 120, 80, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(legalize_placement(db, grid).success);
    for (const Cell& c : db.cells()) {
        if (c.even_height()) {
            EXPECT_TRUE(rail_compatible(c.y(), c.height(), c.rail_phase()));
        }
    }
}

TEST(Legalizer, RelaxedModeReducesDisplacement) {
    // Paper §6 last paragraph: relaxing the power-rail constraint lowers
    // displacement (38-42 % in the paper).
    double disp[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        Rng rng(103);
        Database db = scattered_design(rng, 16, 140, 120, 60);
        SegmentGrid grid = SegmentGrid::build(db);
        LegalizerOptions opts;
        opts.mll.check_rail = mode == 0;
        ASSERT_TRUE(legalize_placement(db, grid, opts).success);
        disp[mode] = displacement_stats(db).avg_sites;
    }
    EXPECT_LT(disp[1], disp[0]);
}

TEST(Legalizer, InfeasibleDesignReportsFailure) {
    // More cell area than the die has sites.
    Database db = empty_design(2, 20);
    for (int i = 0; i < 10; ++i) {
        add_unplaced(db, "c" + std::to_string(i), 5.0, 0.0, 6, 1);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.rounds, kMaxRounds);
    EXPECT_GT(s.unplaced, 0u);
    // Whatever was placed is still legal.
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, lopts).legal);
}

TEST(Legalizer, MultiRowCellsQueueFirst) {
    // Legalized afresh, the starved design needs no rip-up: the
    // double-row cell, last in input order, is queued first and takes
    // rows 1-2 before the single-row cells fill them.
    StarvedDesign d = ripup_starved_design();
    const LegalizerStats s = legalize_placement(d.db, d.grid);
    EXPECT_TRUE(s.success);
    EXPECT_EQ(s.rounds, 1);
    EXPECT_EQ(s.ripup_placements, 0u);
    EXPECT_EQ(d.db.cell(d.stuck).y(), 1);
    EXPECT_TRUE(check_legality(d.db, d.grid).legal);
}

TEST(Legalizer, WorksAroundBlockages) {
    Rng rng(109);
    Database db = scattered_design(rng, 12, 150, 120, 15);
    db.floorplan().add_blockage(Rect{50, 2, 40, 6});
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_TRUE(s.success);
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
}

TEST(Legalizer, ExactEvaluationModeProducesLowerOrEqualDisplacement) {
    // The Table 1 relationship: the exact ("ILP") configuration should on
    // average displace no more than the approximate one.
    double disp[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        Rng rng(113);
        Database db = scattered_design(rng, 14, 160, 200, 25);
        SegmentGrid grid = SegmentGrid::build(db);
        LegalizerOptions opts;
        opts.mll.exact_evaluation = mode == 1;
        ASSERT_TRUE(legalize_placement(db, grid, opts).success);
        disp[mode] = displacement_stats(db).avg_sites;
    }
    // Exact is near-optimal per step; allow a tiny tolerance since the
    // greedy sequence differs.
    EXPECT_LE(disp[1], disp[0] * 1.05);
}

}  // namespace
}  // namespace mrlg::test
