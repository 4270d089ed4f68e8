#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// Two cells, one 2-pin net; site dims default 0.2 x 1.71 um.
struct TwoCellNet {
    Database db = empty_design(4, 100);
    CellId a, b;
    TwoCellNet() {
        a = db.add_cell(Cell("a", 2, 1));
        b = db.add_cell(Cell("b", 2, 1));
        const NetId n = db.add_net("n");
        db.add_pin(a, n, 1.0, 0.5);
        db.add_pin(b, n, 1.0, 0.5);
        db.finalize_pins();
    }
};

TEST(Hpwl, SinglePinNetIgnored) {
    Database db = empty_design(2, 50);
    const CellId a = db.add_cell(Cell("a", 2, 1));
    const NetId n = db.add_net("n");
    db.add_pin(a, n, 0.0, 0.0);
    db.finalize_pins();
    db.cell(a).set_gp(10, 1);
    EXPECT_EQ(hpwl_um(db, PositionSource::kGlobalPlacement), 0.0);
}

TEST(Hpwl, TwoPinNetGlobalPositions) {
    TwoCellNet f;
    f.db.cell(f.a).set_gp(0.0, 0.0);
    f.db.cell(f.b).set_gp(10.0, 2.0);
    const double sw = f.db.floorplan().site_w_um();
    const double sh = f.db.floorplan().site_h_um();
    EXPECT_NEAR(hpwl_um(f.db, PositionSource::kGlobalPlacement),
                10.0 * sw + 2.0 * sh, 1e-9);
}

TEST(Hpwl, LegalizedPositionsDifferFromGp) {
    TwoCellNet f;
    f.db.cell(f.a).set_gp(0.0, 0.0);
    f.db.cell(f.b).set_gp(10.0, 2.0);
    f.db.cell(f.a).set_pos(0, 0);
    f.db.cell(f.b).set_pos(20, 3);
    const double sw = f.db.floorplan().site_w_um();
    const double sh = f.db.floorplan().site_h_um();
    EXPECT_NEAR(hpwl_um(f.db, PositionSource::kLegalized),
                20.0 * sw + 3.0 * sh, 1e-9);
}

TEST(Hpwl, DeltaPositiveWhenLegalizationStretches) {
    TwoCellNet f;
    f.db.cell(f.a).set_gp(0.0, 0.0);
    f.db.cell(f.b).set_gp(10.0, 0.0);
    f.db.cell(f.a).set_pos(0, 0);
    f.db.cell(f.b).set_pos(15, 0);
    EXPECT_NEAR(hpwl_delta(f.db), 0.5, 1e-9);
}

TEST(Hpwl, FixedCellsUseFixedPositionForBothSources) {
    Database db = empty_design(4, 100);
    Cell fixed("pad", 1, 1, RailPhase::kEven, true);
    fixed.set_pos(50, 2);
    const CellId f = db.add_cell(std::move(fixed));
    const CellId m = db.add_cell(Cell("m", 2, 1));
    db.cell(m).set_gp(0.0, 0.0);
    db.cell(m).set_pos(0, 0);
    const NetId n = db.add_net("n");
    db.add_pin(f, n, 0.0, 0.0);
    db.add_pin(m, n, 0.0, 0.0);
    db.finalize_pins();
    const double gp = hpwl_um(db, PositionSource::kGlobalPlacement);
    const double lg = hpwl_um(db, PositionSource::kLegalized);
    EXPECT_NEAR(gp, lg, 1e-9);
    EXPECT_GT(gp, 0.0);
}

TEST(Hpwl, PinOffsetsMatter) {
    TwoCellNet f;
    f.db.cell(f.a).set_gp(0.0, 0.0);
    f.db.cell(f.b).set_gp(0.0, 0.0);  // same origin; offsets identical
    EXPECT_NEAR(hpwl_um(f.db, PositionSource::kGlobalPlacement), 0.0, 1e-9);
}

TEST(Displacement, ZeroWhenAtGp) {
    Database db = empty_design(4, 100);
    const CellId a = db.add_cell(Cell("a", 2, 1));
    db.cell(a).set_gp(10.0, 2.0);
    db.cell(a).set_pos(10, 2);
    const DisplacementStats s = displacement_stats(db);
    EXPECT_EQ(s.num_cells, 1u);
    EXPECT_NEAR(s.avg_sites, 0.0, 1e-12);
    EXPECT_NEAR(s.max_sites, 0.0, 1e-12);
}

TEST(Displacement, MixesXandYInSiteWidths) {
    Database db = empty_design(4, 100);
    const CellId a = db.add_cell(Cell("a", 2, 1));
    db.cell(a).set_gp(10.0, 0.0);
    db.cell(a).set_pos(13, 1);  // dx=3 sites, dy=1 row
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    const DisplacementStats s = displacement_stats(db);
    EXPECT_NEAR(s.total_um, 3.0 * sw + 1.0 * sh, 1e-9);
    EXPECT_NEAR(s.avg_sites, (3.0 * sw + 1.0 * sh) / sw, 1e-9);
}

TEST(Displacement, AveragesOverPlacedMovableOnly) {
    Database db = empty_design(4, 100);
    const CellId a = db.add_cell(Cell("a", 2, 1));
    db.cell(a).set_gp(0.0, 0.0);
    db.cell(a).set_pos(4, 0);
    db.add_cell(Cell("unplaced", 2, 1));
    Cell fixed("f", 2, 1, RailPhase::kEven, true);
    fixed.set_pos(50, 0);
    db.add_cell(std::move(fixed));
    const DisplacementStats s = displacement_stats(db);
    EXPECT_EQ(s.num_cells, 1u);
    EXPECT_NEAR(s.avg_sites, 4.0, 1e-9);
    EXPECT_NEAR(s.max_sites, 4.0, 1e-9);
}

TEST(Displacement, FractionalGpHandled) {
    Database db = empty_design(4, 100);
    const CellId a = db.add_cell(Cell("a", 2, 1));
    db.cell(a).set_gp(10.4, 0.0);
    db.cell(a).set_pos(10, 0);
    EXPECT_NEAR(displacement_stats(db).avg_sites, 0.4, 1e-9);
}

}  // namespace
}  // namespace mrlg::test
