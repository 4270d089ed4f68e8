#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "check/audit_local.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/local_problem.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// The local cells' ids in index order.
std::vector<CellId> local_ids(const LocalProblem& lp) {
    std::vector<CellId> ids;
    for (const LpCell& c : lp.cells()) {
        ids.push_back(c.id);
    }
    return ids;
}

bool has_local(const LocalProblem& lp, CellId c) {
    const std::vector<CellId> ids = local_ids(lp);
    return std::find(ids.begin(), ids.end(), c) != ids.end();
}

/// The local row of absolute row y (has_row rejects one outside).
int row_index(const LocalProblem& lp, SiteCoord y) {
    return static_cast<int>(y - lp.y0());
}

/// The ids of row k's local cells, in x order.
std::vector<CellId> row_ids(const LocalProblem& lp, int k) {
    std::vector<CellId> ids;
    for (const int i : lp.row(k).cells) {
        ids.push_back(lp.cell(i).id);
    }
    return ids;
}

/// The local index order: cells strictly increase in (x, bottom row), and
/// each carries its Database cell's position.
::testing::AssertionResult indexed_in_x_order(const Database& db,
                                              const LocalProblem& lp) {
    for (int i = 0; i < lp.num_cells(); ++i) {
        const LpCell& c = lp.cell(i);
        const Cell& cell = db.cell(c.id);
        if (c.x != cell.x() || c.y != cell.y()) {
            return ::testing::AssertionFailure()
                   << "local " << i << " is not at its cell's position";
        }
        if (i == 0) {
            continue;
        }
        const LpCell& a = lp.cell(i - 1);
        if (std::pair(a.x, a.y) >= std::pair(c.x, c.y)) {
            return ::testing::AssertionFailure()
                   << "local " << i << " (" << c.x << ", " << c.y
                   << ") does not follow local " << i - 1 << " (" << a.x
                   << ", " << a.y << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/// Adjacent local cells of equal x (necessarily on disjoint rows).
int equal_x_pairs(const LocalProblem& lp) {
    int ties = 0;
    for (int i = 1; i < lp.num_cells(); ++i) {
        ties += lp.cell(i - 1).x == lp.cell(i).x ? 1 : 0;
    }
    return ties;
}

/// A legalized generated design: every movable cell placed.
RandomDesign legalized(const GenProfile& p) {
    GenResult gen = generate_benchmark(p);
    RandomDesign d{std::move(gen.db), {}};
    d.grid = SegmentGrid::build(d.db);
    const LegalizerStats stats = legalize_placement(d.db, d.grid, {});
    MRLG_ASSERT(stats.success, "local-order test design must legalize");
    return d;
}

TEST(LocalRegion, EmptyWindowOnEmptyDie) {
    Database db = empty_design(4, 100);
    const SegmentGrid grid = SegmentGrid::build(db);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 1, 20, 2});
    EXPECT_EQ(r.num_rows(), 2);
    EXPECT_TRUE(r.has_row(0));
    EXPECT_TRUE(r.has_row(1));
    EXPECT_EQ(r.row(0).span, (Span{10, 30}));
    EXPECT_EQ(r.num_cells(), 0);
}

TEST(LocalRegion, WindowClippedToDie) {
    Database db = empty_design(4, 100);
    const SegmentGrid grid = SegmentGrid::build(db);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{-10, -2, 30, 10});
    EXPECT_EQ(r.y0(), 0);
    EXPECT_EQ(r.num_rows(), 4);
    EXPECT_EQ(r.row(0).span, (Span{0, 20}));
}

TEST(LocalRegion, WindowEntirelyOffDie) {
    Database db = empty_design(4, 100);
    const SegmentGrid grid = SegmentGrid::build(db);
    EXPECT_EQ(extract_local_region(db, grid, Rect{0, 10, 20, 3}).num_rows(),
              0);
}

TEST(LocalRegion, FullyInsideCellIsLocal) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 20, 1, 4, 1);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 0, 30, 3});
    EXPECT_TRUE(has_local(r, a));
    const int k = row_index(r, 1);
    ASSERT_TRUE(r.has_row(k));
    EXPECT_EQ(row_ids(r, k), std::vector<CellId>{a});
}

TEST(LocalRegion, StraddlingCellIsNonLocalAndCutsRow) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Cell half inside the window's left edge.
    const CellId a = add_placed(db, grid, "a", 5, 1, 10, 1);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 0, 30, 3});
    EXPECT_FALSE(has_local(r, a));
    const int k = row_index(r, 1);
    ASSERT_TRUE(r.has_row(k));
    // The local segment starts after the straddler's footprint.
    EXPECT_EQ(r.row(k).span, (Span{15, 40}));
}

TEST(LocalRegion, PieceClosestToCenterChosen) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Non-local straddler (rows 2-3, window covers rows 0-2 only) splits
    // row 2 into [10,20) and [26,40); window centre x=25 sits closer to the
    // right piece, which wins.
    add_placed(db, grid, "wall", 20, 2, 6, 2);
    const CellId right = add_placed(db, grid, "r", 30, 2, 4, 1);
    const CellId left = add_placed(db, grid, "l", 12, 2, 4, 1);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 0, 30, 3});
    const int k = row_index(r, 2);
    ASSERT_TRUE(r.has_row(k));
    EXPECT_EQ(r.row(k).span, (Span{26, 40}));
    EXPECT_TRUE(has_local(r, right));
    // Figure 3's cell "i": inside W but outside the chosen local segment.
    EXPECT_FALSE(has_local(r, left));
}

TEST(LocalRegion, BlockageBoundsLocalSegment) {
    Database db = empty_design(2, 100);
    db.floorplan().add_blockage(Rect{40, 0, 10, 2});
    SegmentGrid grid = SegmentGrid::build(db);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{20, 0, 40, 2});
    // Window x [20,60); centre 40 sits on the blockage; both pieces at
    // distance 0 from the centre — the wider one ([20,40), width 20) wins.
    ASSERT_TRUE(r.has_row(0));
    EXPECT_EQ(r.row(0).span, (Span{20, 40}));
}

TEST(LocalRegion, MultiRowCellLocalWhenAllRowsContained) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId m = add_placed(db, grid, "m", 20, 0, 4, 2);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 0, 30, 3});
    EXPECT_TRUE(has_local(r, m));
    // Appears in both of its rows' lists, once among the cells.
    EXPECT_EQ(row_ids(r, row_index(r, 0)), std::vector<CellId>{m});
    EXPECT_EQ(row_ids(r, row_index(r, 1)), std::vector<CellId>{m});
    EXPECT_EQ(r.num_cells(), 1);
}

TEST(LocalRegion, MultiRowCellStickingOutOfWindowIsNonLocal) {
    Database db = empty_design(4, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Rows 2..3, window covers rows 0..2 only.
    const CellId m = add_placed(db, grid, "m", 20, 2, 4, 2);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{10, 0, 30, 3});
    EXPECT_FALSE(has_local(r, m));
    // Its footprint cuts row 2's local segment.
    const int k = row_index(r, 2);
    ASSERT_TRUE(r.has_row(k));
    const Span s = r.row(k).span;
    EXPECT_TRUE(s.hi <= 20 || s.lo >= 24);
}

TEST(LocalRegion, CascadingNonLocalFixpoint) {
    // A multi-row cell fully inside the window whose row-3 slice loses the
    // centre-closest contest becomes non-local and must then cut row 2 too.
    Database db = empty_design(6, 120);
    SegmentGrid grid = SegmentGrid::build(db);
    // Initial blocker: rows 3-4, window covers rows 0-3 → splits row 3
    // into [30,40) and [44,70); the right piece contains the centre (50).
    add_placed(db, grid, "wall", 40, 3, 4, 2, RailPhase::kOdd);
    // Multi-row cell on rows 2-3 sits in row 3's *left* piece.
    const CellId m = add_placed(db, grid, "m", 32, 2, 4, 2);
    const LocalProblem r =
        extract_local_region(db, grid, Rect{30, 0, 40, 4});
    EXPECT_FALSE(has_local(r, m));
    // Row 2's local segment must exclude m's sites.
    const int k2 = row_index(r, 2);
    ASSERT_TRUE(r.has_row(k2));
    EXPECT_FALSE(r.row(k2).span.overlaps(Span{32, 36}));
}

TEST(LocalRegion, CellListsOrderedByX) {
    Rng rng(3);
    RandomDesign d = random_legal_design(rng, 12, 150, 90, 0.3);
    const LocalProblem r =
        extract_local_region(d.db, d.grid, Rect{30, 2, 70, 8});
    for (int k = 0; k < r.num_rows(); ++k) {
        if (!r.has_row(k)) {
            continue;
        }
        SiteCoord prev = kSiteCoordMin;
        for (const CellId c : row_ids(r, k)) {
            EXPECT_GE(d.db.cell(c).x(), prev);
            prev = d.db.cell(c).x();
            // Every listed cell is fully inside the local segment.
            EXPECT_TRUE(r.row(k).span.contains(
                Span{d.db.cell(c).x(),
                     d.db.cell(c).x() + d.db.cell(c).width()}));
        }
    }
}

TEST(LocalRegion, EqualXCellsOnDisjointRowsOrderedByBottomRow) {
    Database db = empty_design(6, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    // Added top-down, so id order is the reverse of the expected order.
    const CellId c4 = add_placed(db, grid, "c4", 20, 4, 3, 1);
    const CellId c2 = add_placed(db, grid, "c2", 20, 2, 3, 2);
    const CellId c1 = add_placed(db, grid, "c1", 20, 1, 5, 1);
    const CellId d3 = add_placed(db, grid, "d3", 10, 3, 4, 1);
    const CellId d0 = add_placed(db, grid, "d0", 10, 0, 4, 2);
    const LocalProblem r = extract_local_region(db, grid, Rect{0, 0, 40, 6});
    const std::vector<CellId> expected = {d0, d3, c1, c2, c4};
    EXPECT_EQ(local_ids(r), expected);
    EXPECT_TRUE(indexed_in_x_order(db, r));
}

TEST(LocalRegion, LocalIndicesFollowXOrder) {
    // Windows over a design with blockages and cells up to three rows
    // tall, and over a fenced design, in both regions; among them windows
    // clipped at the die's left edge and windows of half-width Rx = 90.
    GenProfile blocked;
    blocked.num_single = 1500;
    blocked.num_double = 150;
    blocked.num_triple = 30;
    blocked.density = 0.75;
    blocked.num_blockages = 3;
    blocked.blockage_area_frac = 0.04;
    blocked.seed = 11;
    GenProfile fenced;
    fenced.num_single = 1500;
    fenced.num_double = 150;
    fenced.density = 0.7;
    fenced.fence_cell_frac = 0.2;
    fenced.seed = 12;
    int multi_row = 0;
    int ties = 0;
    int clipped = 0;
    int wide = 0;
    int in_fence = 0;
    Rng rng(25);
    for (const GenProfile& p : {blocked, fenced}) {
        const RandomDesign d = legalized(p);
        const Rect die = d.db.floorplan().die();
        const auto& fences = d.db.floorplan().fences();
        for (int t = 0; t < 120; ++t) {
            // Every third window of the fenced design lies over its fence.
            const int region = !fences.empty() && t % 3 == 0 ? 1 : 0;
            const Rect area = region == 1 ? fences[0].rect : die;
            const SiteCoord rx = t % 4 == 0 ? 90 : 30;
            const SiteCoord cx = static_cast<SiteCoord>(
                t % 5 == 0 ? rng.uniform(0, rx - 1)
                           : rng.uniform(area.x, area.x_hi() - 1));
            const SiteCoord cy =
                static_cast<SiteCoord>(rng.uniform(area.y, area.y_hi() - 1));
            const Rect window{cx - rx, cy - 5, 2 * rx + 3, 11};
            const LocalProblem r =
                extract_local_region(d.db, d.grid, window, region);
            EXPECT_TRUE(indexed_in_x_order(d.db, r))
                << "window " << window << " region " << region;
            const AuditReport audit =
                audit_local_region(d.db, d.grid, r, region);
            EXPECT_TRUE(audit.ok()) << audit.to_string();
            ties += equal_x_pairs(r);
            for (const LpCell& c : r.cells()) {
                multi_row += c.h > 1 ? 1 : 0;
            }
            const bool has_cells = r.num_cells() > 0;
            clipped += window.x < 0 && has_cells ? 1 : 0;
            wide += rx == 90 && has_cells ? 1 : 0;
            in_fence += region == 1 && has_cells ? 1 : 0;
        }
    }
    // The sample exercised what the order has to handle.
    EXPECT_GT(multi_row, 100);
    EXPECT_GT(ties, 100);
    EXPECT_GT(clipped, 10);
    EXPECT_GT(wide, 20);
    EXPECT_GT(in_fence, 10);
}

TEST(LocalRegion, RandomizedInvariants) {
    Rng rng(17);
    for (int t = 0; t < 10; ++t) {
        RandomDesign d = random_legal_design(rng, 14, 160, 110, 0.3, 3);
        const SiteCoord wx = static_cast<SiteCoord>(rng.uniform(0, 120));
        const SiteCoord wy = static_cast<SiteCoord>(rng.uniform(0, 10));
        const LocalProblem r = extract_local_region(
            d.db, d.grid, Rect{wx, wy, 40, 6});
        for (const LpCell& c : r.cells()) {
            const Cell& cell = d.db.cell(c.id);
            // Local cells are completely inside the window...
            EXPECT_TRUE(r.window().contains(cell.rect()));
            // ...and inside the local segment of every row they span.
            for (SiteCoord y = cell.y(); y < cell.y() + cell.height();
                 ++y) {
                const int k = row_index(r, y);
                ASSERT_TRUE(r.has_row(k));
                EXPECT_TRUE(r.row(k).span.contains(
                    Span{cell.x(), cell.x() + cell.width()}));
            }
        }
    }
}

}  // namespace
}  // namespace mrlg::test
