#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "legalize/abacus.hpp"
#include "legalize/greedy.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

Database scattered(Rng& rng, SiteCoord rows, SiteCoord sites, int singles,
                   int doubles) {
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

// ---------------- greedy ----------------

TEST(Greedy, LegalizesMixedHeightDesign) {
    Rng rng(301);
    Database db = scattered(rng, 12, 140, 120, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(Greedy, RespectsRailParity) {
    Rng rng(303);
    Database db = scattered(rng, 12, 140, 60, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(greedy_legalize(db, grid).success);
    for (const Cell& c : db.cells()) {
        if (c.even_height()) {
            EXPECT_TRUE(rail_compatible(c.y(), c.height(), c.rail_phase()));
        }
    }
}

TEST(Greedy, AvoidsBlockages) {
    Rng rng(305);
    Database db = scattered(rng, 12, 140, 100, 10);
    db.floorplan().add_blockage(Rect{40, 0, 30, 12});
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(greedy_legalize(db, grid).success);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Greedy, ReportsUnplacedWhenOverfull) {
    Database db = empty_design(1, 20);
    for (int i = 0; i < 6; ++i) {
        add_unplaced(db, "c" + std::to_string(i), 0.0, 0.0, 5, 1);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    const GreedyStats s = greedy_legalize(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.unplaced, 2u);
}

TEST(Greedy, HighDensityDisplacementWorseThanMll) {
    // The §1 claim: placed objects never move, so at high density the
    // greedy baseline pays much more displacement than MLL.
    double disp_greedy = 0;
    double disp_mll = 0;
    for (int mode = 0; mode < 2; ++mode) {
        Rng rng(307);
        Database db = scattered(rng, 10, 100, 160, 12);  // density ~0.8
        SegmentGrid grid = SegmentGrid::build(db);
        if (mode == 0) {
            ASSERT_TRUE(greedy_legalize(db, grid).success);
            disp_greedy = displacement_stats(db).avg_sites;
        } else {
            ASSERT_TRUE(legalize_placement(db, grid).success);
            disp_mll = displacement_stats(db).avg_sites;
        }
    }
    EXPECT_GT(disp_greedy, disp_mll);
}

// ---------------- abacus ----------------

TEST(Abacus, RejectsMultiRowDesigns) {
    Rng rng(311);
    Database db = scattered(rng, 10, 100, 50, 5);
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_TRUE(s.rejected_multi_row);
}

TEST(Abacus, LegalizesSingleRowDesign) {
    Rng rng(313);
    Database db = scattered(rng, 10, 120, 140, 0);
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_TRUE(s.success) << s.unplaced;
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(Abacus, LowDisplacementOnEasyDesign) {
    // A sparse design: every cell should land near its gp position.
    Rng rng(317);
    Database db = scattered(rng, 10, 200, 60, 0);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(abacus_legalize(db, grid).success);
    EXPECT_LT(displacement_stats(db).avg_sites, 8.0);
}

TEST(Abacus, ClusterCollapseKeepsOrder) {
    // Three cells preferring the same spot collapse into one cluster
    // around it, in gp-x order.
    Database db = empty_design(1, 40);
    add_unplaced(db, "a", 10.0, 0.0, 4, 1);
    add_unplaced(db, "b", 10.5, 0.0, 4, 1);
    add_unplaced(db, "c", 11.0, 0.0, 4, 1);
    SegmentGrid grid = SegmentGrid::build(db);
    ASSERT_TRUE(abacus_legalize(db, grid).success);
    const Cell& a = db.cell(db.find_cell("a"));
    const Cell& b = db.cell(db.find_cell("b"));
    const Cell& c = db.cell(db.find_cell("c"));
    EXPECT_EQ(b.x(), a.x() + 4);
    EXPECT_EQ(c.x(), b.x() + 4);
    // Cluster optimum: x = mean(10-0, 10.5-4, 11-8) = 6.5, so the middle
    // cell sits at ~10.5 (integer rounding ±1).
    EXPECT_NEAR(b.x(), 10.5, 1.0);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Abacus, WorksWithBlockages) {
    Rng rng(319);
    Database db = scattered(rng, 8, 120, 80, 0);
    db.floorplan().add_blockage(Rect{50, 0, 20, 8});
    SegmentGrid grid = SegmentGrid::build(db);
    const AbacusStats s = abacus_legalize(db, grid);
    EXPECT_TRUE(s.success);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

}  // namespace
}  // namespace mrlg::test
