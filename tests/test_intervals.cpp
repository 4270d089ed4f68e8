#include <gtest/gtest.h>

#include "legalize/insertion_interval.hpp"
#include "legalize/minmax_placement.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

std::vector<InsertionInterval> intervals_for(Database& db, SegmentGrid& grid,
                                             const Rect& window,
                                             SiteCoord target_w,
                                             LocalProblem* out_lp = nullptr) {
    LocalProblem lp = extract_local_region(db, grid, window);
    compute_minmax_placement(lp);
    auto ivs = build_insertion_intervals(lp, target_w);
    if (out_lp != nullptr) {
        *out_lp = std::move(lp);
    }
    return ivs;
}

TEST(Intervals, EmptyRowSingleWallToWallInterval) {
    Database db = empty_design(1, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 50, 1}, 6);
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].gap, 0);
    EXPECT_EQ(ivs[0].lo, 0);
    EXPECT_EQ(ivs[0].hi, 44);
}

TEST(Intervals, TargetWiderThanRowDiscarded) {
    Database db = empty_design(1, 10);
    SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_TRUE(intervals_for(db, grid, Rect{0, 0, 10, 1}, 11).empty());
    EXPECT_EQ(intervals_for(db, grid, Rect{0, 0, 10, 1}, 10).size(), 1u);
}

TEST(Intervals, CaseABetweenTwoCells) {
    // Paper case (a): gap between cells i and j → [xl_i + w_i, xr_j - w_t].
    Database db = empty_design(1, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "i", 10, 0, 5, 1);
    add_placed(db, grid, "j", 30, 0, 5, 1);
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 50, 1}, 4);
    // Gaps: (L,i), (i,j), (j,R).
    ASSERT_EQ(ivs.size(), 3u);
    EXPECT_EQ(ivs[0].lo, 0);        // wall
    EXPECT_EQ(ivs[0].hi, 40 - 4);   // xr_i - w_t (i packs right to 40)
    EXPECT_EQ(ivs[1].lo, 0 + 5);    // xl_i + w_i
    EXPECT_EQ(ivs[1].hi, 45 - 4);   // xr_j - w_t
    EXPECT_EQ(ivs[2].lo, 5 + 5);    // xl_j + w_j
    EXPECT_EQ(ivs[2].hi, 50 - 4);   // wall - w_t
}

TEST(Intervals, NegativeLengthDiscarded) {
    // Fig. 7(f): row packed so tight the target cannot fit between.
    Database db = empty_design(1, 12);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "b", 6, 0, 5, 1);
    // Free sites: 1 before b end... total slack = 2. Target width 3 fits
    // nowhere between a and b, nor at the walls.
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 12, 1}, 3);
    EXPECT_TRUE(ivs.empty());
}

TEST(Intervals, ZeroLengthKept) {
    // Fig. 7(e): total slack equals the target width, so *every* gap
    // admits exactly one target position (pushing neighbours aside).
    Database db = empty_design(1, 13);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "b", 8, 0, 5, 1);
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 13, 1}, 3);
    ASSERT_EQ(ivs.size(), 3u);
    const SiteCoord expect_pos[3] = {0, 5, 10};
    for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(ivs[g].gap, g);
        EXPECT_EQ(ivs[g].lo, expect_pos[g]);
        EXPECT_EQ(ivs[g].hi, expect_pos[g]);
    }
}

TEST(Intervals, LeftRightCellAccessors) {
    // An interval's left and right cells are its row's cells gap-1 and
    // gap; a gap at a segment wall has no cell on that side.
    Database db = empty_design(1, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 10, 0, 5, 1);
    LocalProblem lp;
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 50, 1}, 4, &lp);
    ASSERT_EQ(ivs.size(), 2u);
    const std::span<const int> cells = lp.row(0).cells;
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(lp.cell(cells[0]).id, a);
    EXPECT_EQ(ivs[0].k, 0);
    EXPECT_EQ(ivs[0].gap, 0);  // wall | a
    EXPECT_EQ(ivs[1].k, 0);
    EXPECT_EQ(ivs[1].gap, 1);  // a | wall
}

TEST(Intervals, PerRowCountsWithMultiRowCell) {
    Database db = empty_design(2, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "m", 20, 0, 4, 2);
    add_placed(db, grid, "s", 40, 1, 4, 1);
    const auto ivs = intervals_for(db, grid, Rect{0, 0, 60, 2}, 4);
    int row0 = 0;
    int row1 = 0;
    for (const auto& iv : ivs) {
        (iv.k == 0 ? row0 : row1) += 1;
    }
    EXPECT_EQ(row0, 2);  // gaps (L,m), (m,R)
    EXPECT_EQ(row1, 3);  // gaps (L,m), (m,s), (s,R)
}

TEST(Intervals, BoundsAreFeasiblePositions) {
    // Property: for every interval, placing the target at lo (or hi) fits
    // within the row span given leftmost/rightmost packings.
    Rng rng(31);
    for (int t = 0; t < 10; ++t) {
        RandomDesign d = random_legal_design(rng, 8, 120, 70, 0.25);
        LocalProblem lp = extract_local_region(
            d.db, d.grid, Rect{10, 0, 80, 8});
        compute_minmax_placement(lp);
        const SiteCoord wt = static_cast<SiteCoord>(rng.uniform(1, 6));
        for (const auto& iv : build_insertion_intervals(lp, wt)) {
            const LpRow& row = lp.row(iv.k);
            EXPECT_GE(iv.lo, row.span.lo);
            EXPECT_LE(iv.hi + wt, row.span.hi);
            EXPECT_LE(iv.lo, iv.hi);
            // Gap g lies between row cells g-1 and g: lo is the
            // leftmost-packed left cell's right edge, hi the
            // rightmost-packed right cell's left edge minus the width.
            const auto g = static_cast<std::size_t>(iv.gap);
            if (g > 0) {
                const LpCell& lc = lp.cell(row.cells[g - 1]);
                EXPECT_EQ(iv.lo, lc.xl + lc.w);
            }
            if (g < row.cells.size()) {
                const LpCell& rc = lp.cell(row.cells[g]);
                EXPECT_EQ(iv.hi, rc.xr - wt);
            }
        }
    }
}

TEST(Intervals, BindPointToIntervalsIntersectsMatchedRows) {
    // Rows 0 and 1 both offer gap 0; the intersection of their ranges is
    // the point's feasible x range.
    std::vector<InsertionInterval> ivs;
    ivs.push_back(InsertionInterval{0, 0, 2, 10});
    ivs.push_back(InsertionInterval{1, 0, 5, 14});
    SiteCoord lo = 0;
    SiteCoord hi = 0;
    ASSERT_TRUE(
        bind_point_to_intervals(ivs, 0, std::vector<int>{0, 0}, lo, hi));
    EXPECT_EQ(lo, 5);
    EXPECT_EQ(hi, 10);
}

TEST(Intervals, BindPointToIntervalsRejectsUnmatchedRow) {
    // Regression for the silent-sentinel bug: row 1 of the chosen
    // combination has no interval for gap 1 (it was discarded as
    // negative-length), so binding must fail instead of leaving row 1's
    // constraint at the kSiteCoordMin/Max sentinels — which would pass a
    // bare lo <= hi check and admit an x that is infeasible in row 1.
    std::vector<InsertionInterval> ivs;
    ivs.push_back(InsertionInterval{0, 0, 2, 10});
    ivs.push_back(InsertionInterval{1, 0, 5, 14});
    SiteCoord lo = 0;
    SiteCoord hi = 0;
    EXPECT_FALSE(
        bind_point_to_intervals(ivs, 0, std::vector<int>{0, 1}, lo, hi));
    // A combination with no rows at all is equally unrealizable.
    EXPECT_FALSE(bind_point_to_intervals(ivs, 0, {}, lo, hi));
    // Matching only via out-of-window rows must not succeed either.
    EXPECT_FALSE(
        bind_point_to_intervals(ivs, 5, std::vector<int>{0}, lo, hi));
}

}  // namespace
}  // namespace mrlg::test
