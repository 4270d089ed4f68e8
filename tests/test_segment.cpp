#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "db/segment.hpp"
#include "qa/snapshot.hpp"
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
    EXPECT_EQ(seg.cells[0], (SegmentSlot{c, 10, 5, 0, 1}));
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
        EXPECT_EQ(seg.cells[0], (SegmentSlot{c, 20, 4, 1, 3}));
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
    for (const SegmentSlot& slot : seg.cells) {
        EXPECT_GT(slot.x, prev);
        prev = slot.x;
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
    EXPECT_FALSE(grid.region_free(Rect{22, 1, 4, 1}));
    EXPECT_TRUE(grid.region_free(Rect{24, 0, 4, 2}));
    EXPECT_TRUE(grid.region_free(Rect{22, 2, 4, 1}));
    EXPECT_TRUE(grid.region_free(Rect{22, 1, 4, 1}, c));  // ignore self
}

TEST(SegmentGrid, PlaceableChecksContainmentAndOverlap) {
    Database db = empty_design(2, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 2});
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 10, 0, 5, 1);
    EXPECT_FALSE(grid.placeable(Rect{12, 0, 4, 1}));  // overlaps a
    EXPECT_FALSE(grid.placeable(Rect{38, 0, 6, 1}));  // crosses blockage
    EXPECT_FALSE(grid.placeable(Rect{96, 0, 6, 1}));  // off die
    EXPECT_FALSE(grid.placeable(Rect{20, 1, 4, 2}));  // above top row
    EXPECT_TRUE(grid.placeable(Rect{20, 0, 4, 1}));
    EXPECT_TRUE(grid.placeable(Rect{50, 0, 10, 2}));
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
    const auto [f1, l1] = grid.cells_overlapping(seg, Span{5, 35});
    EXPECT_EQ(l1 - f1, 2u);
    // Range touching nothing (gap between b and c).
    const auto [f2, l2] = grid.cells_overlapping(seg, Span{31, 39});
    EXPECT_EQ(l2 - f2, 0u);
    // Full range.
    const auto [f3, l3] = grid.cells_overlapping(seg, Span{0, 100});
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

/// Brute-force references for the grid's slot queries: each scans the
/// floorplan and db.cells(), never a segment list.
struct SlotOracle {
    const Database& db;

    /// Fence region of site (x, y); -1 when it is blocked or off the die.
    int site_region(SiteCoord x, SiteCoord y) const {
        const Floorplan& fp = db.floorplan();
        if (!fp.has_row(y) || !fp.row(y).x_span().contains(x)) {
            return -1;
        }
        for (const Rect& b : fp.blockages()) {
            if (b.x_span().contains(x) && b.y_span().contains(y)) {
                return -1;
            }
        }
        for (const Floorplan::Fence& f : fp.fences()) {
            if (f.rect.x_span().contains(x) && f.rect.y_span().contains(y)) {
                return f.region;
            }
        }
        return 0;
    }

    /// True when the sites [xs.lo, xs.hi) of row y are one unblocked run of
    /// one region — inside a single segment — of `region` unless
    /// kAnyRegion.
    bool one_run(SiteCoord y, Span xs, int region) const {
        const int first = site_region(xs.lo, y);
        for (SiteCoord x = xs.lo; x < xs.hi; ++x) {
            const int reg = site_region(x, y);
            if (reg < 0 || reg != first ||
                (region != kAnyRegion && reg != region)) {
                return false;
            }
        }
        return true;
    }

    bool region_free(const Rect& r, CellId ignore) const {
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            const Cell& c = db.cells()[i];
            if (c.placed() && CellId{static_cast<CellId::underlying>(i)} !=
                                  ignore &&
                c.rect().overlaps(r)) {
                return false;
            }
        }
        return true;
    }

    bool placeable(const Rect& r, CellId ignore, int region) const {
        for (SiteCoord y = r.y; y < r.y_hi(); ++y) {
            if (!one_run(y, r.x_span(), region)) {
                return false;
            }
        }
        return region_free(r, ignore);
    }

    /// Placed cells crossing row y inside `span` whose x range overlaps
    /// `xs`, in x order.
    std::vector<CellId> overlapping(SiteCoord y, Span span, Span xs) const {
        std::vector<std::pair<SiteCoord, CellId>> found;
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            const Cell& c = db.cells()[i];
            if (c.placed() && c.rect().y_span().contains(y) &&
                span.contains(c.rect().x_span()) &&
                c.rect().x_span().overlaps(xs)) {
                found.emplace_back(c.x(),
                                   CellId{static_cast<CellId::underlying>(i)});
            }
        }
        std::sort(found.begin(), found.end());
        std::vector<CellId> ids;
        for (const auto& [x, id] : found) {
            ids.push_back(id);
        }
        return ids;
    }

    /// True when applying `moves` keeps every moved cell in its segment
    /// and every row's cells, in their old x order, overlap-free.
    bool shift_keeps_lists(
        const std::vector<std::pair<CellId, SiteCoord>>& moves) const {
        const auto new_x = [&](CellId id) {
            for (const auto& [c, x] : moves) {
                if (c == id) {
                    return x;
                }
            }
            return db.cell(id).x();
        };
        for (const auto& [id, x] : moves) {
            const Cell& c = db.cell(id);
            const Span hull{std::min(c.x(), x),
                            std::max(c.x(), x) + c.width()};
            for (SiteCoord y = c.y(); y < c.y() + c.height(); ++y) {
                if (!one_run(y, hull, c.region())) {
                    return false;
                }
            }
        }
        for (SiteCoord y = 0; y < db.floorplan().num_rows(); ++y) {
            const std::vector<CellId> row =
                overlapping(y, Span{kSiteCoordMin, kSiteCoordMax},
                            Span{kSiteCoordMin, kSiteCoordMax});
            for (std::size_t i = 1; i < row.size(); ++i) {
                if (new_x(row[i - 1]) + db.cell(row[i - 1]).width() >
                    new_x(row[i])) {
                    return false;
                }
            }
        }
        return true;
    }
};

/// Every slot query equals its brute-force scan.
void expect_queries_match(const Database& db, const SegmentGrid& grid,
                          Rng& rng, const std::vector<CellId>& cells) {
    const SlotOracle oracle{db};
    for (const Segment& seg : grid.segments()) {
        const SiteCoord lo = static_cast<SiteCoord>(rng.uniform(-4, 124));
        const Span xs{lo, static_cast<SiteCoord>(lo + rng.uniform(1, 30))};
        const auto [first, last] = grid.cells_overlapping(seg, xs);
        std::vector<CellId> got;
        for (std::size_t i = first; i < last; ++i) {
            got.push_back(seg.cells[i].id);
        }
        EXPECT_EQ(got, oracle.overlapping(seg.y, seg.span, xs))
            << "segment #" << seg.id << " range " << xs;
        const std::vector<CellId> listed =
            oracle.overlapping(seg.y, seg.span, seg.span);
        for (std::size_t i = 0; i < listed.size(); ++i) {
            EXPECT_EQ(grid.index_in(db, seg, listed[i]), i)
                << "segment #" << seg.id;
        }
    }
    for (int q = 0; q < 8; ++q) {
        const Rect r{static_cast<SiteCoord>(rng.uniform(-4, 124)),
                     static_cast<SiteCoord>(rng.uniform(-1, 12)),
                     static_cast<SiteCoord>(rng.uniform(1, 10)),
                     static_cast<SiteCoord>(rng.uniform(1, 4))};
        const CellId ignore =
            rng.chance(0.5) ? cells[static_cast<std::size_t>(rng.uniform(
                                  0, static_cast<int>(cells.size()) - 1))]
                            : CellId{};
        const int region = static_cast<int>(rng.uniform(-1, 1));
        EXPECT_EQ(grid.region_free(r, ignore), oracle.region_free(r, ignore))
            << r;
        EXPECT_EQ(grid.placeable(r, ignore, region),
                  oracle.placeable(r, ignore, region))
            << r << " region " << region;
    }
}

TEST(SegmentGrid, RandomizedAuditAlwaysClean) {
    Rng rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        RandomDesign d = random_legal_design(rng, 12, 120, 60, 0.3);
        EXPECT_TRUE(segment_lists_consistent(d.db, d.grid)) << "trial " << trial;
    }
    // Seeded place / remove / shift sequences on a blocked, fenced die
    // with 1-4-row cells: after every step each slot query equals its
    // brute-force scan and the kCheap audit (slot geometry included) is
    // clean. A shift that would break a list's order must throw and
    // change nothing.
    for (int trial = 0; trial < 3; ++trial) {
        Database db = empty_design(12, 120);
        db.floorplan().add_blockage(Rect{50, 0, 6, 5});
        db.floorplan().add_blockage(Rect{90, 7, 10, 3});
        db.floorplan().add_fence(1, Rect{10, 6, 30, 5});
        SegmentGrid grid = SegmentGrid::build(db);
        std::vector<CellId> cells;
        for (int i = 0; i < 40; ++i) {
            const CellId c = db.add_cell(
                Cell("c" + std::to_string(i),
                     static_cast<SiteCoord>(rng.uniform(1, 8)),
                     static_cast<SiteCoord>(rng.uniform(1, 4))));
            db.cell(c).set_region(rng.chance(0.25) ? 1 : 0);
            cells.push_back(c);
        }
        const SlotOracle oracle{db};
        for (int step = 0; step < 300; ++step) {
            const CellId c = cells[static_cast<std::size_t>(
                rng.uniform(0, static_cast<int>(cells.size()) - 1))];
            const Cell& cell = db.cell(c);
            if (!cell.placed()) {
                const Rect r{static_cast<SiteCoord>(rng.uniform(-2, 120)),
                             static_cast<SiteCoord>(rng.uniform(0, 11)),
                             cell.width(), cell.height()};
                const bool free = oracle.placeable(r, CellId{}, cell.region());
                ASSERT_EQ(grid.placeable(r, CellId{}, cell.region()), free)
                    << "step " << step << " " << r;
                if (free) {
                    grid.place(db, c, r.x, r.y);
                }
            } else if (rng.chance(0.3)) {
                grid.remove(db, c);
            } else {
                // Shift a run of up to three neighbours of c's bottom-row
                // list by the same dx.
                const Segment& seg = grid.segment(grid.containing_segment(
                    cell.y(), cell.rect().x_span(), cell.region()));
                const std::size_t at = grid.index_in(db, seg, c);
                const std::size_t n = std::min<std::size_t>(
                    seg.cells.size() - at,
                    static_cast<std::size_t>(rng.uniform(1, 3)));
                SiteCoord dx = static_cast<SiteCoord>(rng.uniform(-4, 3));
                dx += dx >= 0 ? 1 : 0;
                std::vector<std::pair<CellId, SiteCoord>> moves;
                for (std::size_t i = at; i < at + n; ++i) {
                    moves.emplace_back(seg.cells[i].id, seg.cells[i].x + dx);
                }
                if (oracle.shift_keeps_lists(moves)) {
                    ASSERT_NO_THROW(grid.shift(db, moves)) << "step " << step;
                    for (const auto& [id, x] : moves) {
                        EXPECT_EQ(db.cell(id).x(), x);
                    }
                } else {
                    const qa::PlacementSnapshot before =
                        qa::capture_snapshot(db, grid);
                    EXPECT_THROW(grid.shift(db, moves), AssertionError)
                        << "step " << step;
                    EXPECT_TRUE(before == qa::capture_snapshot(db, grid))
                        << "step " << step;
                }
            }
            ASSERT_TRUE(segment_lists_consistent(db, grid))
                << "trial " << trial << " step " << step;
            expect_queries_match(db, grid, rng, cells);
        }
    }
}

}  // namespace
}  // namespace mrlg::test
