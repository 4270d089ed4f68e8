#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "legalize/enumeration.hpp"
#include "legalize/minmax_placement.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TargetSpec make_target(SiteCoord w, SiteCoord h,
                       RailPhase phase = RailPhase::kEven) {
    TargetSpec t;
    t.w = w;
    t.h = h;
    t.rail_phase = phase;
    return t;
}

struct Prepared {
    LocalProblem lp;
    std::vector<InsertionInterval> intervals;
};

Prepared prepare(Database& db, SegmentGrid& grid, const Rect& window,
                 const TargetSpec& target) {
    Prepared p{make_local_problem(db, grid, window), {}};
    compute_minmax_placement(p.lp);
    p.intervals = build_insertion_intervals(p.lp, target.w);
    return p;
}

/// Canonical form for set comparison.
std::set<std::string> canon(const std::vector<InsertionPoint>& pts) {
    std::set<std::string> out;
    for (const auto& p : pts) {
        std::string s = std::to_string(p.k0) + "|";
        for (const int g : p.gaps) {
            s += std::to_string(g) + ",";
        }
        s += "|" + std::to_string(p.lo) + ":" + std::to_string(p.hi);
        out.insert(s);
    }
    return out;
}

TEST(Enumeration, SingleRowTargetOneIntervalPerPoint) {
    Database db = empty_design(1, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 20, 0, 5, 1);
    const TargetSpec t = make_target(4, 1);
    Prepared p = prepare(db, grid, Rect{0, 0, 50, 1}, t);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, t);
    EXPECT_FALSE(res.truncated);
    EXPECT_EQ(res.points.size(), p.intervals.size());
}

TEST(Enumeration, DoubleRowTargetCombinesAdjacentRows) {
    Database db = empty_design(2, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const TargetSpec t = make_target(4, 2);
    Prepared p = prepare(db, grid, Rect{0, 0, 50, 2}, t);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, t);
    // One empty gap per row, combined once.
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_EQ(res.points[0].k0, 0);
    EXPECT_EQ(res.points[0].lo, 0);
    EXPECT_EQ(res.points[0].hi, 46);
}

TEST(Enumeration, RailParityFiltersBaseRows) {
    Database db = empty_design(4, 50);
    SegmentGrid grid = SegmentGrid::build(db);
    const TargetSpec even = make_target(4, 2, RailPhase::kEven);
    Prepared p = prepare(db, grid, Rect{0, 0, 50, 4}, even);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, even);
    // Base rows 0 and 2 only.
    std::set<int> bases;
    for (const auto& pt : res.points) {
        bases.insert(pt.k0);
    }
    EXPECT_EQ(bases, (std::set<int>{0, 2}));

    const TargetSpec odd = make_target(4, 2, RailPhase::kOdd);
    const auto res2 = enumerate_insertion_points(p.lp, p.intervals, odd);
    bases.clear();
    for (const auto& pt : res2.points) {
        bases.insert(pt.k0);
    }
    EXPECT_EQ(bases, (std::set<int>{1}));

    EnumerationOptions relaxed;
    relaxed.check_rail = false;
    const auto res3 =
        enumerate_insertion_points(p.lp, p.intervals, even, relaxed);
    bases.clear();
    for (const auto& pt : res3.points) {
        bases.insert(pt.k0);
    }
    EXPECT_EQ(bases, (std::set<int>{0, 1, 2}));
}

TEST(Enumeration, CommonCutlineRequired) {
    // Row 0 free only on the left, row 1 free only on the right, with no
    // common x → no double-height insertion point.
    Database db = empty_design(2, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    db.floorplan().add_blockage(Rect{18, 0, 22, 1});  // row 0: [0,18) free
    db.floorplan().add_blockage(Rect{0, 1, 22, 1});   // row 1: [22,40) free
    grid = SegmentGrid::build(db);
    const TargetSpec t = make_target(4, 2);
    Prepared p = prepare(db, grid, Rect{0, 0, 40, 2}, t);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, t);
    EXPECT_TRUE(res.points.empty());
}

TEST(Enumeration, Figure8MultiRowBlocking) {
    // Fig. 8: gaps on opposite sides of a double-height cell do not form a
    // valid insertion point even with a common cutline.
    Database db = empty_design(2, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 12, 0, 6, 2);  // double-height wall
    const TargetSpec t = make_target(4, 2);
    Prepared p = prepare(db, grid, Rect{0, 0, 30, 2}, t);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, t);
    // Valid: both gaps left of a, both right of a. Invalid: mixed.
    ASSERT_EQ(res.points.size(), 2u);
    for (const auto& pt : res.points) {
        EXPECT_EQ(pt.gaps[0], pt.gaps[1]);
        EXPECT_TRUE(insertion_point_consistent(p.lp, pt));
    }
}

TEST(Enumeration, MixedSidePointRejectedByConsistency) {
    Database db = empty_design(2, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 12, 0, 6, 2);
    const TargetSpec t = make_target(4, 2);
    Prepared p = prepare(db, grid, Rect{0, 0, 30, 2}, t);
    InsertionPoint bad;
    bad.k0 = 0;
    bad.gaps = {0, 1};  // left of a in row 0, right of a in row 1
    EXPECT_FALSE(insertion_point_consistent(p.lp, bad));
}

TEST(Enumeration, MatchesNaiveOnHandcraftedRegion) {
    Database db = empty_design(3, 60);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "m", 20, 0, 4, 2);
    add_placed(db, grid, "s1", 5, 0, 6, 1);
    add_placed(db, grid, "s2", 30, 1, 6, 1);
    add_placed(db, grid, "s3", 26, 2, 5, 1);
    for (const SiteCoord h : {1, 2, 3}) {
        for (const SiteCoord w : {2, 5}) {
            const TargetSpec t = make_target(w, h);
            Prepared p = prepare(db, grid, Rect{0, 0, 60, 3}, t);
            const auto fast =
                enumerate_insertion_points(p.lp, p.intervals, t);
            const auto naive =
                naive_enumerate_insertion_points(p.lp, p.intervals, t);
            EXPECT_EQ(canon(fast.points), canon(naive.points))
                << "h=" << h << " w=" << w;
        }
    }
}

TEST(Enumeration, MatchesNaiveOnRandomRegions) {
    Rng rng(41);
    for (int trial = 0; trial < 25; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 100,
                                             40 + trial, 0.35, 3);
        const TargetSpec t = make_target(
            static_cast<SiteCoord>(rng.uniform(1, 5)),
            static_cast<SiteCoord>(rng.uniform(1, 3)),
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd);
        LocalProblem lp = make_local_problem(
            d.db, d.grid,
            Rect{static_cast<SiteCoord>(rng.uniform(0, 60)),
                 static_cast<SiteCoord>(rng.uniform(0, 4)), 40, 5});
        compute_minmax_placement(lp);
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto fast = enumerate_insertion_points(lp, intervals, t);
        const auto naive =
            naive_enumerate_insertion_points(lp, intervals, t);
        EXPECT_EQ(canon(fast.points), canon(naive.points))
            << "trial " << trial;
    }
}

TEST(Enumeration, NoDuplicatesEmitted) {
    Rng rng(43);
    for (int trial = 0; trial < 10; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 100, 50, 0.3);
        const TargetSpec t = make_target(3, 2);
        LocalProblem lp =
            make_local_problem(d.db, d.grid, Rect{10, 0, 60, 8});
        compute_minmax_placement(lp);
        const auto intervals = build_insertion_intervals(lp, t.w);
        const auto res = enumerate_insertion_points(lp, intervals, t);
        EXPECT_EQ(canon(res.points).size(), res.points.size());
    }
}

TEST(Enumeration, FeasibleRangeAlwaysNonEmptyAndTight) {
    Rng rng(47);
    RandomDesign d = random_legal_design(rng, 8, 100, 55, 0.3);
    const TargetSpec t = make_target(3, 2);
    LocalProblem lp = make_local_problem(d.db, d.grid, Rect{0, 0, 100, 8});
    compute_minmax_placement(lp);
    const auto intervals = build_insertion_intervals(lp, t.w);
    const auto res = enumerate_insertion_points(lp, intervals, t);
    for (const auto& pt : res.points) {
        EXPECT_LE(pt.lo, pt.hi);
        EXPECT_EQ(pt.gaps.size(), 2u);
    }
}

TEST(Enumeration, MaxPointsTruncates) {
    Database db = empty_design(1, 200);
    SegmentGrid grid = SegmentGrid::build(db);
    for (int i = 0; i < 20; ++i) {
        add_placed(db, grid, "c" + std::to_string(i),
                   static_cast<SiteCoord>(i * 10), 0, 4, 1);
    }
    const TargetSpec t = make_target(2, 1);
    Prepared p = prepare(db, grid, Rect{0, 0, 200, 1}, t);
    EnumerationOptions opts;
    opts.max_points = 5;
    const auto res =
        enumerate_insertion_points(p.lp, p.intervals, t, opts);
    EXPECT_TRUE(res.truncated);
    EXPECT_EQ(res.points.size(), 5u);
}

TEST(Enumeration, MissingRowBlocksTallTargets) {
    Database db = empty_design(3, 40);
    db.floorplan().add_blockage(Rect{0, 1, 40, 1});  // row 1 fully blocked
    SegmentGrid grid = SegmentGrid::build(db);
    const TargetSpec t2 = make_target(4, 2);
    Prepared p = prepare(db, grid, Rect{0, 0, 40, 3}, t2);
    EXPECT_TRUE(enumerate_insertion_points(p.lp, p.intervals, t2)
                    .points.empty());
    const TargetSpec t1 = make_target(4, 1);
    Prepared p1 = prepare(db, grid, Rect{0, 0, 40, 3}, t1);
    EXPECT_EQ(enumerate_insertion_points(p1.lp, p1.intervals, t1)
                  .points.size(),
              2u);  // rows 0 and 2
}

TEST(Enumeration, TripleRowTargetAcrossMultiRowCells) {
    Database db = empty_design(3, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "m", 16, 0, 4, 3);  // full-height wall
    const TargetSpec t = make_target(4, 3, RailPhase::kEven);
    Prepared p = prepare(db, grid, Rect{0, 0, 40, 3}, t);
    const auto res = enumerate_insertion_points(p.lp, p.intervals, t);
    ASSERT_EQ(res.points.size(), 2u);  // fully left or fully right of m
    for (const auto& pt : res.points) {
        EXPECT_TRUE(std::all_of(pt.gaps.begin(), pt.gaps.end(),
                                [&](int g) { return g == pt.gaps[0]; }));
    }
}

TEST(Enumeration, SingleRowSequenceEqualsScanline) {
    // For h_t = 1 the points are emitted directly; the sequence — not just
    // the set — must be the scanline's, because the order breaks cost ties.
    // Rows may be fully blocked or outside the die (absent local rows),
    // and max_points may cut the sequence short.
    Rng rng(59);
    std::size_t compared = 0;
    std::size_t missing_rows = 0;
    std::size_t truncated = 0;
    const SiteCoord rows = 8;
    const SiteCoord sites = 80;
    for (int trial = 0; trial < 40; ++trial) {
        Database db = empty_design(rows, sites);
        db.floorplan().add_blockage(Rect{
            0, static_cast<SiteCoord>(rng.uniform(0, rows - 1)), sites, 1});
        db.floorplan().add_blockage(
            Rect{static_cast<SiteCoord>(rng.uniform(0, sites - 10)),
                 static_cast<SiteCoord>(rng.uniform(0, rows - 1)), 10, 1});
        SegmentGrid grid = SegmentGrid::build(db);
        for (int i = 0; i < 90; ++i) {
            const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 6));
            const SiteCoord h = rng.chance(0.25) ? 2 : 1;
            const Rect r{static_cast<SiteCoord>(rng.uniform(0, sites - w)),
                         static_cast<SiteCoord>(rng.uniform(0, rows - h)), w,
                         h};
            if (grid.placeable(db, r, CellId{}, 0)) {
                add_placed(db, grid, "c" + std::to_string(i), r.x, r.y, w,
                           h);
            }
        }
        const Rect window{static_cast<SiteCoord>(rng.uniform(0, 40)),
                          static_cast<SiteCoord>(rng.uniform(-2, rows - 4)),
                          static_cast<SiteCoord>(rng.uniform(20, 80)),
                          static_cast<SiteCoord>(rng.uniform(4, 8))};
        LocalProblem lp = make_local_problem(db, grid, window);
        compute_minmax_placement(lp);
        for (int k = 0; k < lp.num_rows(); ++k) {
            missing_rows += lp.has_row(k) ? 0 : 1;
        }
        for (const RailPhase phase : {RailPhase::kEven, RailPhase::kOdd}) {
            const TargetSpec t =
                make_target(static_cast<SiteCoord>(rng.uniform(1, 5)), 1,
                            phase);
            const auto intervals = build_insertion_intervals(lp, t.w);
            for (const bool rail : {true, false}) {
                EnumerationOptions opts;
                opts.check_rail = rail;
                const std::size_t n = intervals.size();
                for (const std::size_t cap :
                     {opts.max_points, std::size_t{0}, n / 2, n}) {
                    opts.max_points = cap;
                    EnumerationScratch s1;
                    EnumerationScratch s2;
                    EnumerationResult direct;
                    EnumerationResult scan;
                    enumerate_insertion_points(lp, intervals, t, opts, s1,
                                               direct);
                    enumerate_insertion_points_scanline(lp, intervals, t,
                                                        opts, s2, scan);
                    EXPECT_EQ(direct.points, scan.points)
                        << "trial " << trial << " cap " << cap;
                    EXPECT_EQ(direct.truncated, scan.truncated)
                        << "trial " << trial << " cap " << cap;
                    truncated += scan.truncated ? 1 : 0;
                    ++compared;
                }
            }
        }
    }
    EXPECT_GT(compared, 0u);
    EXPECT_GT(missing_rows, 0u);
    EXPECT_GT(truncated, 0u);
}

}  // namespace
}  // namespace mrlg::test
