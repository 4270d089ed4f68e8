#include <gtest/gtest.h>

#include "db/segment.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace mrlg::test {
namespace {

TEST(SegmentGrid, BuildWithoutBlockages) {
    Database db = empty_design(4, 100);
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_EQ(grid.num_segments(), 4u);
    for (SiteCoord y = 0; y < 4; ++y) {
        const auto segs = grid.row_segments(y);
        ASSERT_EQ(segs.size(), 1u);
        EXPECT_EQ(grid.segment(segs[0]).span, (Span{0, 100}));
        EXPECT_EQ(grid.segment(segs[0]).y, y);
    }
}

TEST(SegmentGrid, BlockageSplitsRow) {
    Database db = empty_design(2, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 1});  // row 0 only
    const SegmentGrid grid = SegmentGrid::build(db);
    const auto row0 = grid.row_segments(0);
    ASSERT_EQ(row0.size(), 2u);
    EXPECT_EQ(grid.segment(row0[0]).span, (Span{0, 40}));
    EXPECT_EQ(grid.segment(row0[1]).span, (Span{50, 100}));
    EXPECT_EQ(grid.row_segments(1).size(), 1u);
}

TEST(SegmentGrid, BlockageAtRowEdge) {
    Database db = empty_design(1, 100);
    db.floorplan().add_blockage(Rect{0, 0, 10, 1});
    db.floorplan().add_blockage(Rect{90, 0, 10, 1});
    const SegmentGrid grid = SegmentGrid::build(db);
    const auto row0 = grid.row_segments(0);
    ASSERT_EQ(row0.size(), 1u);
    EXPECT_EQ(grid.segment(row0[0]).span, (Span{10, 90}));
}

TEST(SegmentGrid, FullyBlockedRowHasNoSegments) {
    Database db = empty_design(2, 50);
    db.floorplan().add_blockage(Rect{0, 1, 50, 1});
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_EQ(grid.row_segments(1).size(), 0u);
    EXPECT_EQ(grid.row_segments(0).size(), 1u);
}

TEST(SegmentGrid, ContainingSegment) {
    Database db = empty_design(1, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 1});
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_TRUE(grid.containing_segment(0, Span{0, 40}).valid());
    EXPECT_TRUE(grid.containing_segment(0, Span{50, 100}).valid());
    EXPECT_FALSE(grid.containing_segment(0, Span{35, 55}).valid());
    EXPECT_FALSE(grid.containing_segment(0, Span{38, 45}).valid());
    EXPECT_FALSE(grid.containing_segment(1, Span{0, 10}).valid());
    EXPECT_FALSE(grid.containing_segment(-1, Span{0, 10}).valid());
}

TEST(SegmentGrid, PlaceSingleRowCell) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "a", 10, 0, 5, 1);
    EXPECT_TRUE(db.cell(c).placed());
    const Segment& seg = grid.segment(grid.row_segments(0)[0]);
    ASSERT_EQ(seg.cells.size(), 1u);
    EXPECT_EQ(seg.cells[0], c);
    EXPECT_EQ(grid.segment(grid.row_segments(1)[0]).cells.size(), 0u);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(SegmentGrid, PlaceMultiRowCellAppearsInAllRows) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "m", 20, 1, 4, 3);
    for (SiteCoord y = 1; y <= 3; ++y) {
        const Segment& seg = grid.segment(grid.row_segments(y)[0]);
        ASSERT_EQ(seg.cells.size(), 1u) << "row " << y;
        EXPECT_EQ(seg.cells[0], c);
    }
    EXPECT_EQ(grid.segment(grid.row_segments(0)[0]).cells.size(), 0u);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(SegmentGrid, ListsStaySortedByX) {
    Database db = empty_design(1, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "b", 50, 0, 5, 1);
    add_placed(db, grid, "a", 10, 0, 5, 1);
    add_placed(db, grid, "c", 70, 0, 5, 1);
    add_placed(db, grid, "mid", 30, 0, 5, 1);
    const Segment& seg = grid.segment(grid.row_segments(0)[0]);
    ASSERT_EQ(seg.cells.size(), 4u);
    SiteCoord prev = -1;
    for (const CellId id : seg.cells) {
        EXPECT_GT(db.cell(id).x(), prev);
        prev = db.cell(id).x();
    }
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(SegmentGrid, RemoveCell) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "m", 20, 0, 4, 2);
    grid.remove(db, c);
    EXPECT_FALSE(db.cell(c).placed());
    EXPECT_EQ(grid.segment(grid.row_segments(0)[0]).cells.size(), 0u);
    EXPECT_EQ(grid.segment(grid.row_segments(1)[0]).cells.size(), 0u);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(SegmentGrid, RegionFreeDetectsOverlap) {
    Database db = empty_design(3, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "m", 20, 0, 4, 2);
    EXPECT_FALSE(grid.region_free(db, Rect{22, 1, 4, 1}));
    EXPECT_TRUE(grid.region_free(db, Rect{24, 0, 4, 2}));
    EXPECT_TRUE(grid.region_free(db, Rect{22, 2, 4, 1}));
    EXPECT_TRUE(grid.region_free(db, Rect{22, 1, 4, 1}, c));  // ignore self
}

TEST(SegmentGrid, PlaceableChecksContainmentAndOverlap) {
    Database db = empty_design(2, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 2});
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 10, 0, 5, 1);
    EXPECT_FALSE(grid.placeable(db, Rect{12, 0, 4, 1}));  // overlaps a
    EXPECT_FALSE(grid.placeable(db, Rect{38, 0, 6, 1}));  // crosses blockage
    EXPECT_FALSE(grid.placeable(db, Rect{96, 0, 6, 1}));  // off die
    EXPECT_FALSE(grid.placeable(db, Rect{20, 1, 4, 2}));  // above top row
    EXPECT_TRUE(grid.placeable(db, Rect{20, 0, 4, 1}));
    EXPECT_TRUE(grid.placeable(db, Rect{50, 0, 10, 2}));
}

TEST(SegmentGrid, PlaceOutsideSegmentAsserts) {
    Database db = empty_design(2, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 1});
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = db.add_cell(Cell("x", 12, 1));
    EXPECT_THROW(grid.place(db, c, 35, 0), AssertionError);
    EXPECT_FALSE(db.cell(c).placed());
}

TEST(SegmentGrid, DoublePlaceAsserts) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "a", 0, 0, 2, 1);
    EXPECT_THROW(grid.place(db, c, 10, 0), AssertionError);
}

TEST(SegmentGrid, OrientationFlipsForOddHeightCells) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a =
        add_placed(db, grid, "a", 0, 0, 2, 1, RailPhase::kEven);
    const CellId b =
        add_placed(db, grid, "b", 10, 1, 2, 1, RailPhase::kEven);
    EXPECT_EQ(db.cell(a).orient(), Orient::kN);   // parity matches
    EXPECT_EQ(db.cell(b).orient(), Orient::kFS);  // flipped
}

TEST(SegmentGrid, CellsOverlappingRange) {
    Database db = empty_design(1, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 10, 1);
    add_placed(db, grid, "b", 20, 0, 10, 1);
    add_placed(db, grid, "c", 40, 0, 10, 1);
    const Segment& seg = grid.segment(grid.row_segments(0)[0]);
    // Range straddling a's tail and b fully.
    const auto [f1, l1] = grid.cells_overlapping(db, seg, Span{5, 35});
    EXPECT_EQ(l1 - f1, 2u);
    // Range touching nothing (gap between b and c).
    const auto [f2, l2] = grid.cells_overlapping(db, seg, Span{31, 39});
    EXPECT_EQ(l2 - f2, 0u);
    // Full range.
    const auto [f3, l3] = grid.cells_overlapping(db, seg, Span{0, 100});
    EXPECT_EQ(l3 - f3, 3u);
}

TEST(SegmentGrid, IndexInFindsCells) {
    Database db = empty_design(1, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 10, 1);
    const CellId b = add_placed(db, grid, "b", 20, 0, 10, 1);
    const Segment& seg = grid.segment(grid.row_segments(0)[0]);
    EXPECT_EQ(grid.index_in(db, seg, a), 0u);
    EXPECT_EQ(grid.index_in(db, seg, b), 1u);
}

TEST(SegmentGrid, AuditDetectsManualCorruption) {
    Database db = empty_design(1, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 10, 1);
    // Corrupt the position behind the grid's back: now the cell escapes
    // its recorded slot.
    db.cell(a).set_x(95);
    EXPECT_FALSE(segment_lists_consistent(db, grid));
}

TEST(SegmentGrid, RandomizedAuditAlwaysClean) {
    Rng rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        RandomDesign d = random_legal_design(rng, 12, 120, 60, 0.3);
        EXPECT_TRUE(segment_lists_consistent(d.db, d.grid)) << "trial " << trial;
    }
}

}  // namespace
}  // namespace mrlg::test
