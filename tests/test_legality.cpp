#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TEST(RailCompatible, OddHeightAlwaysCompatible) {
    for (SiteCoord y = 0; y < 6; ++y) {
        EXPECT_TRUE(rail_compatible(y, 1, RailPhase::kEven));
        EXPECT_TRUE(rail_compatible(y, 1, RailPhase::kOdd));
        EXPECT_TRUE(rail_compatible(y, 3, RailPhase::kEven));
    }
}

TEST(RailCompatible, EvenHeightNeedsMatchingParity) {
    EXPECT_TRUE(rail_compatible(0, 2, RailPhase::kEven));
    EXPECT_FALSE(rail_compatible(1, 2, RailPhase::kEven));
    EXPECT_TRUE(rail_compatible(2, 2, RailPhase::kEven));
    EXPECT_FALSE(rail_compatible(0, 2, RailPhase::kOdd));
    EXPECT_TRUE(rail_compatible(1, 2, RailPhase::kOdd));
    EXPECT_TRUE(rail_compatible(4, 4, RailPhase::kEven));
    EXPECT_FALSE(rail_compatible(3, 4, RailPhase::kEven));
}

TEST(Legality, EmptyDesignIsLegal) {
    Database db = empty_design(4, 50);
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Legality, CleanPlacementIsLegal) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    add_placed(db, grid, "b", 5, 0, 5, 1);
    add_placed(db, grid, "m", 10, 0, 4, 2, RailPhase::kEven);
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_TRUE(rep.legal) << (rep.messages.empty() ? "" : rep.messages[0]);
}

TEST(Legality, DetectsOverlapSameRow) {
    Database db = empty_design(2, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId b = db.add_cell(Cell("b", 5, 1));
    db.cell(b).set_pos(3, 0);  // bypass grid to create the violation
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_GE(rep.num_overlaps, 1u);
}

TEST(Legality, DetectsNestedOverlapsUnderWideCell) {
    // Regression: a wide cell fully covering two disjoint short cells.
    // The old sweep compared each slice only against its immediate
    // predecessor, so the second covered cell ([6,8) vs predecessor [2,4))
    // was missed entirely. The running-max sweep must find both overlaps
    // and attribute both to the covering cell.
    Database db = empty_design(2, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId wide = db.add_cell(Cell("wide", 10, 1));
    db.cell(wide).set_pos(0, 0);  // bypass grid to create the violation
    const CellId b = db.add_cell(Cell("b", 2, 1));
    db.cell(b).set_pos(2, 0);
    const CellId c = db.add_cell(Cell("c", 2, 1));
    db.cell(c).set_pos(6, 0);
    LegalityOptions opts;
    opts.collect_overlap_pairs = true;
    const LegalityReport rep = check_legality(db, grid, opts);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_overlaps, 2u);
    ASSERT_EQ(rep.overlap_pairs.size(), 2u);
    EXPECT_EQ(rep.overlap_pairs[0], (std::pair<CellId, CellId>{wide, b}));
    EXPECT_EQ(rep.overlap_pairs[1], (std::pair<CellId, CellId>{wide, c}));
}

TEST(Legality, DetectsCrossRowOverlapViaMultiRowCell) {
    Database db = empty_design(3, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "tall", 0, 0, 4, 3);
    const CellId b = db.add_cell(Cell("b", 4, 1));
    db.cell(b).set_pos(2, 2);  // overlaps row 2 slice of "tall"
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_GE(rep.num_overlaps, 1u);
}

TEST(Legality, DetectsRailViolation) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId m = db.add_cell(Cell("m", 4, 2, RailPhase::kEven));
    db.cell(m).set_pos(0, 1);  // odd row, even phase
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_rail_violations, 1u);
}

TEST(Legality, RailViolationIgnoredWhenRelaxed) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId m = db.add_cell(Cell("m", 4, 2, RailPhase::kEven));
    db.cell(m).set_pos(0, 1);
    LegalityOptions opts;
    opts.check_rail_alignment = false;
    EXPECT_TRUE(check_legality(db, grid, opts).legal);
}

TEST(Legality, DetectsCellOutsideRows) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = db.add_cell(Cell("a", 5, 1));
    db.cell(a).set_pos(48, 0);  // sticks out of the row
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_out_of_rows, 1u);

    const CellId b = db.add_cell(Cell("b", 5, 2));
    db.cell(b).set_pos(0, 3);  // top row slice off die
    EXPECT_GE(check_legality(db, grid).num_out_of_rows, 2u);
}

TEST(Legality, DetectsCellOnBlockage) {
    Database db = empty_design(2, 50);
    db.floorplan().add_blockage(Rect{10, 0, 10, 1});
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = db.add_cell(Cell("a", 5, 1));
    db.cell(a).set_pos(12, 0);
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_out_of_rows, 1u);
}

TEST(Legality, UnplacedCellsReported) {
    Database db = empty_design(2, 50);
    const SegmentGrid grid = SegmentGrid::build(db);
    db.add_cell(Cell("a", 5, 1));
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_unplaced, 1u);

    LegalityOptions opts;
    opts.require_all_placed = false;
    EXPECT_TRUE(check_legality(db, grid, opts).legal);
}

TEST(Legality, ReportListsEveryViolationInOrder) {
    // One violation of each kind, the cells added so that id order and
    // row order disagree: the per-cell checks come first in id order, then
    // the overlaps row by row.
    Database db = empty_design(6, 50);
    db.floorplan().add_blockage(Rect{40, 0, 5, 1});
    const SegmentGrid grid = SegmentGrid::build(db);
    const auto add = [&](const char* name, SiteCoord x, SiteCoord y,
                         SiteCoord w, SiteCoord h) {
        const CellId c = db.add_cell(Cell(name, w, h, RailPhase::kEven));
        db.cell(c).set_pos(x, y);  // bypass grid to create the violations
        return c;
    };
    const CellId tall = add("tall", 20, 2, 4, 2);  // rows 2-3
    add("blk", 41, 0, 3, 1);                       // on the blockage
    const CellId wide = add("wide", 0, 0, 10, 1);  // row 0, x 0-10
    add("rail", 30, 1, 4, 2);                      // even phase, odd row
    db.add_cell(Cell("lost", 3, 1));               // unplaced
    const CellId a = add("a", 2, 0, 4, 1);         // under wide
    const CellId b = add("b", 4, 0, 4, 1);         // under wide, overlaps a
    const CellId top = add("top", 22, 3, 4, 1);    // on tall's upper row

    LegalityOptions opts;
    opts.collect_overlap_pairs = true;
    const LegalityReport rep = check_legality(db, grid, opts);
    EXPECT_FALSE(rep.legal);
    EXPECT_EQ(rep.num_unplaced, 1u);
    EXPECT_EQ(rep.num_out_of_rows, 1u);
    EXPECT_EQ(rep.num_rail_violations, 1u);
    EXPECT_EQ(rep.num_overlaps, 3u);
    const std::vector<std::string> messages = {
        "cell blk outside rows/segments",
        "cell rail violates power-rail parity",
        "cell lost is unplaced",
        "overlap between wide and a",
        "overlap between wide and b",
        "overlap between tall and top",
    };
    EXPECT_EQ(rep.messages, messages);
    const std::vector<std::pair<CellId, CellId>> pairs = {
        {wide, a}, {wide, b}, {a, b}, {tall, top}};
    EXPECT_EQ(rep.overlap_pairs, pairs);

    opts.require_all_placed = false;
    const LegalityReport placed_only = check_legality(db, grid, opts);
    EXPECT_EQ(placed_only.num_unplaced, 0u);
    std::vector<std::string> without_lost = messages;
    without_lost.erase(without_lost.begin() + 2);
    EXPECT_EQ(placed_only.messages, without_lost);
    EXPECT_EQ(placed_only.num_overlaps, 3u);
    EXPECT_EQ(placed_only.overlap_pairs, pairs);
}

TEST(Legality, FixedCellsAreExempt) {
    Database db = empty_design(4, 50);
    Cell macro("macro", 10, 2, RailPhase::kOdd, true);
    macro.set_pos(0, 0);  // "wrong" parity — irrelevant for fixed cells
    db.add_cell(std::move(macro));
    db.freeze_fixed_cells();
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Legality, MessageCapRespected) {
    Database db = empty_design(1, 200);
    const SegmentGrid grid = SegmentGrid::build(db);
    for (int i = 0; i < 50; ++i) {
        db.add_cell(Cell("u" + std::to_string(i), 2, 1));
    }
    const LegalityReport rep = check_legality(db, grid);
    EXPECT_EQ(rep.num_unplaced, 50u);
    EXPECT_EQ(rep.messages.size(), kMaxLegalityMessages);
}

TEST(PositionLegalForCell, ChecksEverything) {
    Database db = empty_design(4, 50);
    db.floorplan().add_blockage(Rect{20, 0, 5, 4});
    const SegmentGrid grid = SegmentGrid::build(db);
    const CellId d = db.add_cell(Cell("d", 4, 2, RailPhase::kEven));
    EXPECT_TRUE(position_legal_for_cell(db, grid, d, 0, 0));
    EXPECT_FALSE(position_legal_for_cell(db, grid, d, 0, 1));   // parity
    EXPECT_TRUE(position_legal_for_cell(db, grid, d, 0, 1, false));
    EXPECT_FALSE(position_legal_for_cell(db, grid, d, 18, 0));  // blockage
    EXPECT_FALSE(position_legal_for_cell(db, grid, d, 47, 0));  // off row
    EXPECT_FALSE(position_legal_for_cell(db, grid, d, 0, 3));   // off die top
    EXPECT_FALSE(position_legal_for_cell(db, grid, d, 0, -1));  // below die
}

TEST(Legality, RandomizedDesignsAlwaysLegalAfterPacking) {
    Rng rng(5);
    for (int t = 0; t < 4; ++t) {
        RandomDesign d = random_legal_design(rng, 10, 150, 80, 0.25, 3);
        const LegalityReport rep = check_legality(d.db, d.grid);
        EXPECT_TRUE(rep.legal)
            << (rep.messages.empty() ? "?" : rep.messages[0]);
    }
}

}  // namespace
}  // namespace mrlg::test
