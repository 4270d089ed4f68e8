#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

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

// ---------------- free-slot search ----------------

/// A gp coordinate in [lo, hi): fractional, integral, or exactly half-way
/// between two sites (rows), a third of the time each.
double pick_gp(Rng& rng, double lo, double hi) {
    const double v = lo + rng.uniform01() * (hi - lo);
    switch (rng.uniform(0, 2)) {
        case 0:
            return v;
        case 1:
            return std::floor(v);
        default:
            return std::floor(v) + 0.5;
    }
}

/// Adds a movable cell of `region` and places it at `r`.
void place_cell(Database& db, SegmentGrid& grid, const Rect& r, int region,
                RailPhase phase) {
    const CellId c = db.add_cell(
        Cell("p" + std::to_string(db.num_cells()), r.w, r.h, phase));
    db.cell(c).set_region(region);
    grid.place(db, c, r.x, r.y);
}

TEST(FreeSlot, MatchesWholeRowReference) {
    // The outward search against the whole-row scan, for every movable
    // cell of seeded random designs: blockages, a fence strip, staggered
    // row origins, both rail parities, heights 1 to 3, rows left partly
    // packed or packed full (every fourth design is packed full, and then
    // every search returns nullopt), gp fractional, integral or half-way.
    Rng rng(20261021);
    std::size_t compared = 0;
    std::size_t found = 0;
    std::size_t none = 0;
    std::size_t multi_row_found = 0;
    std::size_t fenced_found = 0;
    GridWriteScope write;
    for (int trial = 0; trial < 80; ++trial) {
        const auto rows = static_cast<SiteCoord>(rng.uniform(6, 14));
        const auto sites = static_cast<SiteCoord>(rng.uniform(30, 80));
        const bool staggered = rng.chance(0.3);
        Floorplan fp;
        for (SiteCoord y = 0; y < rows; ++y) {
            const auto x0 =
                static_cast<SiteCoord>(staggered ? rng.uniform(0, 3) : 0);
            fp.add_row(Row{y, x0, static_cast<SiteCoord>(sites - x0)});
        }
        for (int b = static_cast<int>(rng.uniform(0, 3)); b > 0; --b) {
            fp.add_blockage(
                Rect{static_cast<SiteCoord>(rng.uniform(0, sites - 8)),
                     static_cast<SiteCoord>(rng.uniform(0, rows - 2)),
                     static_cast<SiteCoord>(rng.uniform(2, 8)),
                     static_cast<SiteCoord>(rng.uniform(1, 3))});
        }
        const bool fenced = rng.chance(0.5);
        if (fenced) {
            fp.add_fence(1, Rect{static_cast<SiteCoord>(rng.uniform(
                                     sites / 3, sites - 10)),
                                 static_cast<SiteCoord>(rng.uniform(0, 2)),
                                 8, static_cast<SiteCoord>(rows - 2)});
        }
        Database db{std::move(fp)};
        SegmentGrid grid = SegmentGrid::build(db);

        // Pack some rows full, left to right over their segments; every
        // row when the design is full.
        const bool full = trial % 4 == 0;
        for (SiteCoord y = 0; y < rows; ++y) {
            if (!full && !rng.chance(0.3)) {
                continue;
            }
            for (const SegmentId sid : grid.row_segments(y)) {
                const Segment seg = grid.segment(sid);
                for (SiteCoord x = seg.span.lo; x < seg.span.hi;) {
                    const SiteCoord w = std::min<SiteCoord>(
                        static_cast<SiteCoord>(rng.uniform(1, 3)),
                        seg.span.hi - x);
                    place_cell(db, grid, Rect{x, y, w, 1}, seg.region,
                               RailPhase::kEven);
                    x += w;
                }
            }
        }
        // Scatter cells of heights 1 to 3 over what is left.
        for (int i = 0; i < rows * sites / 6; ++i) {
            const auto h = static_cast<SiteCoord>(
                rng.chance(0.3) ? rng.uniform(2, 3) : 1);
            const Rect r{static_cast<SiteCoord>(rng.uniform(0, sites - 6)),
                         static_cast<SiteCoord>(rng.uniform(0, rows - h)),
                         static_cast<SiteCoord>(rng.uniform(1, 6)), h};
            const RailPhase phase = rail_compatible(r.y, h, RailPhase::kEven)
                                        ? RailPhase::kEven
                                        : RailPhase::kOdd;
            for (const int region : {0, 1}) {
                if (grid.placeable(r, CellId{}, region)) {
                    place_cell(db, grid, r, region, phase);
                    break;
                }
            }
        }
        // Unplaced targets, then a gp for every movable cell.
        for (int i = 0; i < 40; ++i) {
            const CellId c = add_unplaced(
                db, "t" + std::to_string(i), 0.0, 0.0,
                static_cast<SiteCoord>(rng.uniform(1, 6)),
                static_cast<SiteCoord>(rng.uniform(1, 3)),
                rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
            db.cell(c).set_region(fenced && rng.chance(0.3) ? 1 : 0);
        }
        for (const CellId c : db.movable_cells()) {
            Cell& cell = db.cell(c);
            cell.set_gp(pick_gp(rng, -2.0, sites + 2.0),
                        pick_gp(rng, -1.0, rows - cell.height() + 1.0));
        }

        for (const CellId c : db.movable_cells()) {
            const Cell& cell = db.cell(c);
            for (const bool rail : {true, false}) {
                const std::optional<Point> got = find_nearest_free_position(
                    db, grid, c, cell.gp_x(), cell.gp_y(), rail);
                const std::optional<Point> want =
                    reference_find_nearest_free_position(
                        db, grid, c, cell.gp_x(), cell.gp_y(), rail);
                EXPECT_EQ(got, want)
                    << "trial " << trial << " cell " << c.index() << " gp ("
                    << cell.gp_x() << ", " << cell.gp_y() << ") rail "
                    << rail;
                ++compared;
                if (want) {
                    ++found;
                    multi_row_found += cell.height() > 1 ? 1 : 0;
                    fenced_found += cell.region() != 0 ? 1 : 0;
                } else {
                    ++none;
                }
                if (full) {
                    EXPECT_FALSE(got) << "trial " << trial;
                }
            }
        }
    }
    EXPECT_GT(compared, 5000u);
    EXPECT_GT(found, 1000u);
    EXPECT_GT(none, 1000u);
    EXPECT_GT(multi_row_found, 300u);
    EXPECT_GT(fenced_found, 100u);
}

TEST(FreeSlot, RowsComeNearestFirstLowerRowOnTie) {
    // OutwardRows against a sort of every usable row by (|y - py|, y).
    Rng rng(71);
    for (int trial = 0; trial < 300; ++trial) {
        const auto num_rows = static_cast<SiteCoord>(rng.uniform(1, 12));
        const auto h = static_cast<SiteCoord>(rng.uniform(1, 4));
        const double py = pick_gp(rng, -2.0, num_rows + 2.0);
        const bool rail = rng.chance(0.5);
        const RailPhase phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
        std::vector<SiteCoord> want;
        for (SiteCoord y = 0; y + h <= num_rows; ++y) {
            if (!rail || rail_compatible(y, h, phase)) {
                want.push_back(y);
            }
        }
        std::sort(want.begin(), want.end(), [&](SiteCoord a, SiteCoord b) {
            const double da = std::abs(a - py);
            const double db_ = std::abs(b - py);
            return da != db_ ? da < db_ : a < b;
        });
        std::vector<SiteCoord> got;
        OutwardRows rows(num_rows, h, py, rail, phase);
        while (const std::optional<SiteCoord> y = rows.next()) {
            got.push_back(*y);
        }
        EXPECT_EQ(got, want) << "trial " << trial << " py " << py;
    }
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
