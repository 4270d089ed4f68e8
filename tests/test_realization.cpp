#include <gtest/gtest.h>

#include "legalize/evaluation.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

int idx_of(const LocalProblem& lp, CellId id) {
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (lp.cell(i).id == id) {
            return i;
        }
    }
    return -1;
}

/// Checks that the realization plus a target at (xt, rows k0..) is
/// overlap-free and keeps every row's order and span.
void expect_legal_realization(const LocalProblem& lp,
                              const InsertionPoint& pt,
                              const Realization& r, SiteCoord target_w) {
    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const LpRow& row = lp.row(k);
        const bool comb =
            k >= pt.k0 && k < pt.k0 + static_cast<int>(pt.gaps.size());
        const int gap =
            comb ? pt.gaps[static_cast<std::size_t>(k - pt.k0)] : -1;
        SiteCoord cursor = row.span.lo;
        for (std::size_t pos = 0; pos <= row.cells.size(); ++pos) {
            if (comb && static_cast<int>(pos) == gap) {
                EXPECT_GE(r.xt, cursor) << "target overlaps on row " << k;
                cursor = r.xt + target_w;
            }
            if (pos < row.cells.size()) {
                const int ci = row.cells[pos];
                const SiteCoord nx = r.new_x[static_cast<std::size_t>(ci)];
                EXPECT_GE(nx, cursor)
                    << "overlap before cell " << ci << " row " << k;
                cursor = nx + lp.cell(ci).w;
            }
        }
        EXPECT_LE(cursor, row.span.hi) << "row " << k << " overflows";
    }
}

TEST(Realization, NoPushWhenGapIsWide) {
    Database db = empty_design(1, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 0, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 50, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 60, 1});
    compute_minmax_placement(lp);
    InsertionPoint pt;
    pt.k0 = 0;
    pt.gaps = {1};
    pt.lo = 5;
    pt.hi = 46;
    const Realization r = realize_insertion(lp, pt, 20, 4);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.moved_sites, 0.0);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, a))], 0);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, b))], 50);
    expect_legal_realization(lp, pt, r, 4);
}

TEST(Realization, PushesLeftChain) {
    Database db = empty_design(1, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 2, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 8, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 30, 1});
    compute_minmax_placement(lp);
    InsertionPoint pt;
    pt.k0 = 0;
    pt.gaps = {2};  // right of b
    pt.lo = 10;
    pt.hi = 26;
    const Realization r = realize_insertion(lp, pt, 11, 4);
    ASSERT_TRUE(r.ok);
    // b must end at 11 → pushed to 6; that pushes a to 1.
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, b))], 6);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, a))], 1);
    EXPECT_EQ(r.moved_sites, 3.0);
    expect_legal_realization(lp, pt, r, 4);
}

TEST(Realization, PushesRightChain) {
    Database db = empty_design(1, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId a = add_placed(db, grid, "a", 10, 0, 5, 1);
    const CellId b = add_placed(db, grid, "b", 16, 0, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 30, 1});
    compute_minmax_placement(lp);
    InsertionPoint pt;
    pt.k0 = 0;
    pt.gaps = {0};  // left of a
    pt.lo = 0;
    pt.hi = 10;
    const Realization r = realize_insertion(lp, pt, 8, 4);
    ASSERT_TRUE(r.ok);
    // a pushed to 12, b pushed to 17.
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, a))], 12);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, b))], 17);
    EXPECT_EQ(r.moved_sites, 3.0);
    expect_legal_realization(lp, pt, r, 4);
}

TEST(Realization, MultiRowPushCascadesAcrossRows) {
    // Pushing double-height m right in row 0 must move its row-1 slice,
    // which pushes s in row 1.
    Database db = empty_design(2, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId m = add_placed(db, grid, "m", 4, 0, 4, 2);
    const CellId s = add_placed(db, grid, "s", 9, 1, 5, 1);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 30, 2});
    compute_minmax_placement(lp);
    // Single-row target left of m in row 0.
    InsertionPoint pt;
    pt.k0 = 0;
    pt.gaps = {0};
    pt.lo = 0;
    pt.hi = 12;  // xr_m - wt... generous
    const Realization r = realize_insertion(lp, pt, 2, 4);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, m))], 6);
    EXPECT_EQ(r.new_x[static_cast<std::size_t>(idx_of(lp, s))], 10);
    expect_legal_realization(lp, pt, r, 4);
}

TEST(Realization, TargetXOutsideRangeAsserts) {
    Database db = empty_design(1, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    LocalProblem lp = extract_local_region(db, grid, Rect{0, 0, 20, 1});
    compute_minmax_placement(lp);
    InsertionPoint pt;
    pt.k0 = 0;
    pt.gaps = {0};
    pt.lo = 0;
    pt.hi = 16;
    EXPECT_THROW(realize_insertion(lp, pt, 17, 4), AssertionError);
}

TEST(Realization, EveryEnumeratedPointRealizesLegally) {
    // Core soundness property (paper §5.3): every valid insertion point,
    // realized at any x in [lo, hi], yields a legal local placement.
    Rng rng(71);
    for (int trial = 0; trial < 15; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 90, 55, 0.35, 3);
        LocalProblem lp =
            extract_local_region(d.db, d.grid, Rect{5, 0, 70, 8});
        compute_minmax_placement(lp);
        TargetSpec t;
        t.w = static_cast<SiteCoord>(rng.uniform(1, 5));
        t.h = static_cast<SiteCoord>(rng.uniform(1, 3));
        t.rail_phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        for (const auto& pt : res.points) {
            for (const SiteCoord x :
                 {pt.lo, pt.hi,
                  static_cast<SiteCoord>((pt.lo + pt.hi) / 2)}) {
                const Realization r = realize_insertion(lp, pt, x, t.w);
                ASSERT_TRUE(r.ok);
                expect_legal_realization(lp, pt, r, t.w);
            }
        }
    }
}

TEST(Realization, MovedCostIsMinimal) {
    // Each pushed cell moves exactly to the overlap boundary, never more:
    // moved distance equals the hinge displacement predicted by the exact
    // critical positions.
    Rng rng(73);
    RandomDesign d = random_legal_design(rng, 6, 80, 45, 0.3);
    LocalProblem lp = extract_local_region(d.db, d.grid, Rect{0, 0, 80, 6});
    compute_minmax_placement(lp);
    TargetSpec t;
    t.w = 3;
    t.h = 1;
    const auto intervals = build_insertion_intervals(lp, t.w);
    const auto res = enumerate_insertion_points(lp, intervals, t);
    for (const auto& pt : res.points) {
        const CriticalPositions cp =
            compute_critical_positions(lp, pt, t.w);
        const SiteCoord x = pt.lo;
        const Realization r = realize_insertion(lp, pt, x, t.w);
        for (int i = 0; i < lp.num_cells(); ++i) {
            const LpCell& c = lp.cell(i);
            SiteCoord expected = c.x;
            if (cp.xa[static_cast<std::size_t>(i)] != kSiteCoordMin) {
                expected = c.x - std::max<SiteCoord>(
                    0, cp.xa[static_cast<std::size_t>(i)] - x);
            } else if (cp.xb[static_cast<std::size_t>(i)] !=
                       kSiteCoordMax) {
                expected = c.x + std::max<SiteCoord>(
                    0, x - cp.xb[static_cast<std::size_t>(i)]);
            }
            EXPECT_EQ(r.new_x[static_cast<std::size_t>(i)], expected);
        }
    }
}

}  // namespace
}  // namespace mrlg::test
