#include <gtest/gtest.h>

#include "dp/row_polish.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

// ---------------- solve_fixed_order_row (exact 1-D solver) ----------------

TEST(FixedOrderRow, EmptyInput) {
    EXPECT_TRUE(solve_fixed_order_row({}, Span{0, 10}, {}).empty());
}

TEST(FixedOrderRow, SingleCellSnapsToPreference) {
    const auto x = solve_fixed_order_row({4}, Span{0, 20}, {7.0});
    ASSERT_EQ(x.size(), 1u);
    EXPECT_EQ(x[0], 7);
}

TEST(FixedOrderRow, SingleCellClampedToSpan) {
    EXPECT_EQ(solve_fixed_order_row({4}, Span{0, 20}, {-5.0})[0], 0);
    EXPECT_EQ(solve_fixed_order_row({4}, Span{0, 20}, {50.0})[0], 16);
}

TEST(FixedOrderRow, NonConflictingPreferencesKept) {
    const auto x =
        solve_fixed_order_row({3, 3, 3}, Span{0, 30}, {2.0, 10.0, 20.0});
    EXPECT_EQ(x[0], 2);
    EXPECT_EQ(x[1], 10);
    EXPECT_EQ(x[2], 20);
}

TEST(FixedOrderRow, ConflictingPreferencesClump) {
    // Both want x=10; order fixed → they abut around it.
    const auto x = solve_fixed_order_row({4, 4}, Span{0, 30}, {10.0, 10.0});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_EQ(x[1], x[0] + 4);
    // The L1 optimum is any clump with x0 in [6, 10] (cost 4; medians of
    // an even count are non-unique).
    EXPECT_GE(x[0], 6);
    EXPECT_LE(x[0], 10);
    EXPECT_NEAR(std::abs(x[0] - 10.0) + std::abs(x[1] - 10.0), 4.0, 1e-9);
}

TEST(FixedOrderRow, OutOfOrderPreferencesResolve) {
    // Cell 0 wants the right side, cell 1 the left: the L1-optimal
    // solution clumps them at the median of the shifted targets.
    const auto x =
        solve_fixed_order_row({2, 2}, Span{0, 20}, {15.0, 3.0});
    ASSERT_EQ(x.size(), 2u);
    EXPECT_EQ(x[1], x[0] + 2);
    EXPECT_GE(x[0], 0);
    EXPECT_LE(x[1] + 2, 20);
}

TEST(FixedOrderRow, NeverOverlapsAndStaysInSpan) {
    Rng rng(601);
    for (int trial = 0; trial < 50; ++trial) {
        const int n = static_cast<int>(rng.uniform(1, 12));
        std::vector<SiteCoord> w;
        std::vector<double> pref;
        SiteCoord total = 0;
        for (int i = 0; i < n; ++i) {
            w.push_back(static_cast<SiteCoord>(rng.uniform(1, 6)));
            total += w.back();
            pref.push_back(static_cast<double>(rng.uniform(-10, 60)));
        }
        const Span span{0, total + static_cast<SiteCoord>(
                                       rng.uniform(0, 30))};
        const auto x = solve_fixed_order_row(w, span, pref);
        SiteCoord prev_end = span.lo;
        for (int i = 0; i < n; ++i) {
            EXPECT_GE(x[static_cast<std::size_t>(i)], prev_end);
            prev_end = x[static_cast<std::size_t>(i)] +
                       w[static_cast<std::size_t>(i)];
        }
        EXPECT_LE(prev_end, span.hi);
    }
}

TEST(FixedOrderRow, OptimalVersusBruteForce) {
    // Exhaustive check on small instances: the solver's cost matches the
    // best over all feasible integer placements.
    Rng rng(607);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 3;
        std::vector<SiteCoord> w;
        std::vector<double> pref;
        for (int i = 0; i < n; ++i) {
            w.push_back(static_cast<SiteCoord>(rng.uniform(1, 3)));
            pref.push_back(static_cast<double>(rng.uniform(0, 14)));
        }
        const Span span{0, 16};
        const auto x = solve_fixed_order_row(w, span, pref);
        double got = 0;
        for (int i = 0; i < n; ++i) {
            got += std::abs(static_cast<double>(
                                x[static_cast<std::size_t>(i)]) -
                            pref[static_cast<std::size_t>(i)]);
        }
        // Brute force.
        double best = 1e18;
        for (SiteCoord a = 0; a + w[0] <= 16; ++a) {
            for (SiteCoord b = a + w[0]; b + w[1] <= 16; ++b) {
                for (SiteCoord c = b + w[1]; c + w[2] <= 16; ++c) {
                    best = std::min(
                        best, std::abs(a - pref[0]) +
                                  std::abs(b - pref[1]) +
                                  std::abs(c - pref[2]));
                }
            }
        }
        EXPECT_NEAR(got, best, 1e-9) << "trial " << trial;
    }
}

// ---------------- row_polish (full pass) ----------------

struct PolishFixture {
    Database db;
    SegmentGrid grid;
};

PolishFixture polished_design(std::uint64_t seed, double multi_frac) {
    GenProfile p;
    p.name = "polish";
    const std::size_t total = 900;
    p.num_double = static_cast<std::size_t>(multi_frac * total);
    p.num_single = total - p.num_double;
    p.density = 0.5;
    p.seed = seed;
    p.gp_sigma_x = 3.0;
    GenResult gen = generate_benchmark(p);
    PolishFixture f{std::move(gen.db), SegmentGrid{}};
    f.grid = SegmentGrid::build(f.db);
    LegalizerOptions opts;
    MRLG_ASSERT(legalize_placement(f.db, f.grid, opts).success,
                "fixture legalization failed");
    return f;
}

TEST(RowPolish, ImprovesHpwlOnSingleRowDesign) {
    PolishFixture f = polished_design(3, 0.0);
    const RowPolishStats s = row_polish(f.db, f.grid);
    EXPECT_GT(s.segments_polished, 0u);
    EXPECT_EQ(s.segments_skipped_multirow, 0u);
    EXPECT_LT(s.hpwl_after_um, s.hpwl_before_um);
    EXPECT_NEAR(s.hpwl_after_um, hpwl_um(f.db, PositionSource::kLegalized),
                1e-6);
    EXPECT_TRUE(check_legality(f.db, f.grid).legal);
    EXPECT_TRUE(segment_lists_consistent(f.db, f.grid));
}

TEST(RowPolish, SkipsSegmentsWithMultiRowCells) {
    PolishFixture f = polished_design(5, 0.25);
    const RowPolishStats s = row_polish(f.db, f.grid);
    // The paper's point: a meaningful share of rows is untouchable by
    // single-row techniques once multi-row cells are present.
    EXPECT_GT(s.segments_skipped_multirow, 0u);
    // Multi-row cells did not move.
    EXPECT_TRUE(check_legality(f.db, f.grid).legal);
    EXPECT_TRUE(segment_lists_consistent(f.db, f.grid));
}

TEST(RowPolish, NeverWorsensHpwl) {
    PolishFixture f = polished_design(7, 0.1);
    const RowPolishStats s1 = row_polish(f.db, f.grid);
    const RowPolishStats s2 = row_polish(f.db, f.grid);
    EXPECT_LE(s1.hpwl_after_um, s1.hpwl_before_um + 1e-9);
    EXPECT_LE(s2.hpwl_after_um, s2.hpwl_before_um + 1e-9);
}

TEST(RowPolish, NoNetsNoChanges) {
    Rng rng(11);
    RandomDesign d = random_legal_design(rng, 8, 100, 60, 0.0);
    std::vector<Point> before;
    for (const Cell& c : d.db.cells()) {
        before.push_back(c.pos());
    }
    row_polish(d.db, d.grid);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(d.db.cells()[i].pos(), before[i]);
    }
}

}  // namespace
}  // namespace mrlg::test
