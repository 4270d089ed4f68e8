#include <gtest/gtest.h>

#include "legalize/minmax_placement.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// Index of a cell in the LocalProblem by database id.
int lp_index(const LocalProblem& lp, CellId id) {
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (lp.cell(i).id == id) {
            return i;
        }
    }
    return -1;
}

TEST(MinMax, SingleCellFullRange) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 40, 0, 6, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 100, 2});
    compute_minmax_placement(lp);
    const LpCell& c = lp.cell(lp_index(lp, a));
    EXPECT_EQ(c.xl, 0);
    EXPECT_EQ(c.xr, 94);
}

TEST(MinMax, ChainPacksAgainstWalls) {
    Database db = empty_design(1, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 10, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 20, 0, 5, 1);
    const CellId c = add_placed(db, grid, "c", 30, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 50, 1});
    compute_minmax_placement(lp);
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xl, 0);
    EXPECT_EQ(lp.cell(lp_index(lp, b)).xl, 5);
    EXPECT_EQ(lp.cell(lp_index(lp, c)).xl, 10);
    EXPECT_EQ(lp.cell(lp_index(lp, c)).xr, 45);
    EXPECT_EQ(lp.cell(lp_index(lp, b)).xr, 40);
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xr, 35);
}

TEST(MinMax, MultiRowCellCouplesRows) {
    // Fig. 6 flavour: a double-height cell must clear the max frontier of
    // both rows.
    Database db = empty_design(2, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 10, 1);   // row 0
    const CellId b = add_placed(db, grid, "b", 2, 1, 5, 1);    // row 1
    const CellId m = add_placed(db, grid, "m", 20, 0, 4, 2);   // rows 0-1
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 2});
    compute_minmax_placement(lp);
    // Leftmost: a→0 (10 wide), b→0..? b is only on row 1 → xl=0? No: b's
    // x (2) is after a's x (0) but they share no row; frontier of row 1 is
    // 0 → b.xl = 0. m must clear row0 frontier (10) and row1 frontier (5).
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xl, 0);
    EXPECT_EQ(lp.cell(lp_index(lp, b)).xl, 0);
    EXPECT_EQ(lp.cell(lp_index(lp, m)).xl, 10);
    // Rightmost: m packs to 56; a to min over rows it spans (row0): 56-10
    // = 46; b to 56-5 = 51.
    EXPECT_EQ(lp.cell(lp_index(lp, m)).xr, 56);
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xr, 46);
    EXPECT_EQ(lp.cell(lp_index(lp, b)).xr, 51);
}

TEST(MinMax, SegmentWallsRespected) {
    Database db = empty_design(1, 100);
    db.floorplan().add_blockage(Rect{0, 0, 10, 1});
    db.floorplan().add_blockage(Rect{90, 0, 10, 1});
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 50, 0, 6, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 100, 1});
    compute_minmax_placement(lp);
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xl, 10);
    EXPECT_EQ(lp.cell(lp_index(lp, a)).xr, 84);
}

TEST(MinMax, BoundsBracketCurrentPosition) {
    Rng rng(23);
    for (int t = 0; t < 10; ++t) {
        RandomDesign d = random_legal_design(rng, 10, 140, 100, 0.3, 3);
        LocalProblem lp = extract_local_region(
            d.db, d.grid,
            Rect{static_cast<SiteCoord>(rng.uniform(0, 90)),
                 static_cast<SiteCoord>(rng.uniform(0, 6)), 45, 6});
        compute_minmax_placement(lp);
        for (int i = 0; i < lp.num_cells(); ++i) {
            const LpCell& c = lp.cell(i);
            EXPECT_LE(c.xl, c.x);
            EXPECT_GE(c.xr, c.x);
        }
    }
}

TEST(MinMax, LeftmostPlacementIsLegal) {
    // Property: assigning every cell its xl yields an overlap-free,
    // order-preserving placement (same for xr).
    Rng rng(29);
    for (int t = 0; t < 10; ++t) {
        RandomDesign d = random_legal_design(rng, 10, 140, 100, 0.3, 3);
        LocalProblem lp = extract_local_region(
            d.db, d.grid,
            Rect{static_cast<SiteCoord>(rng.uniform(0, 90)),
                 static_cast<SiteCoord>(rng.uniform(0, 6)), 45, 6});
        compute_minmax_placement(lp);
        for (int k = 0; k < lp.num_rows(); ++k) {
            if (!lp.has_row(k)) {
                continue;
            }
            const auto& row = lp.row(k);
            SiteCoord prev_l = row.span.lo;
            SiteCoord prev_r = row.span.lo;
            for (const int ci : row.cells) {
                const LpCell& c = lp.cell(ci);
                EXPECT_GE(c.xl, prev_l);
                EXPECT_GE(c.xr, prev_r);
                prev_l = c.xl + c.w;
                prev_r = c.xr + c.w;
            }
            EXPECT_LE(prev_l, row.span.hi);
            EXPECT_LE(prev_r, row.span.hi);
        }
    }
}

TEST(MinMax, AssertsOnIllegalInput) {
    Database db = empty_design(1, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 10, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 20, 1});
    // Corrupt: push b onto a behind the problem's back (swap order).
    static_cast<void>(a);
    static_cast<void>(b);
    auto& cells = lp.mutable_cells();
    for (LpCell& c : cells) {
        if (c.id == b) {
            c.x = 2;  // now overlaps a and violates list order
        }
    }
    EXPECT_THROW(compute_minmax_placement(lp), AssertionError);
}

}  // namespace
}  // namespace mrlg::test
