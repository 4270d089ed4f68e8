/// Parameterized full-flow sweeps: the legalizer must succeed and produce
/// a legal, low-displacement placement across the (density × height-mix ×
/// rail-mode) grid. One TEST_P instance per grid point.

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

struct SweepCase {
    double density;
    double double_frac;
    double triple_frac;
    double quad_frac;
    bool check_rail;
};

std::ostream& operator<<(std::ostream& os, const SweepCase& c) {
    return os << "d" << c.density << "_m" << c.double_frac << "_t"
              << c.triple_frac << "_q" << c.quad_frac
              << (c.check_rail ? "_rail" : "_norail");
}

class LegalizerSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LegalizerSweep, LegalizesWithBoundedDisplacement) {
    const SweepCase& c = GetParam();
    GenProfile p;
    p.name = "sweep";
    const std::size_t total = 1200;
    p.num_double = static_cast<std::size_t>(c.double_frac * total);
    p.num_triple = static_cast<std::size_t>(c.triple_frac * total);
    p.num_quad = static_cast<std::size_t>(c.quad_frac * total);
    p.num_single = total - p.num_double - p.num_triple - p.num_quad;
    p.density = c.density;
    p.seed = 1234 + static_cast<std::uint64_t>(c.density * 100);
    GenResult gen = generate_benchmark(p);
    ASSERT_TRUE(gen.packed_ok);

    SegmentGrid grid = SegmentGrid::build(gen.db);
    LegalizerOptions opts;
    opts.mll.check_rail = c.check_rail;
    const LegalizerStats stats = legalize_placement(gen.db, grid, opts);
    EXPECT_TRUE(stats.success) << stats.unplaced << " unplaced";

    LegalityOptions lopts;
    lopts.check_rail_alignment = c.check_rail;
    const LegalityReport rep = check_legality(gen.db, grid, lopts);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    EXPECT_TRUE(segment_lists_consistent(gen.db, grid));

    // Displacement stays within a loose but meaningful bound: the GP noise
    // plus pushes must not blow up even at high density.
    const DisplacementStats disp = displacement_stats(gen.db);
    EXPECT_LT(disp.avg_sites, 15.0);
    EXPECT_GT(disp.avg_sites, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    DensityAndHeightGrid, LegalizerSweep,
    ::testing::Values(
        // Paper-style mixes (10% doubles) over the density range.
        SweepCase{0.20, 0.10, 0.0, 0.0, true},
        SweepCase{0.40, 0.10, 0.0, 0.0, true},
        SweepCase{0.60, 0.10, 0.0, 0.0, true},
        SweepCase{0.75, 0.10, 0.0, 0.0, true},
        SweepCase{0.88, 0.10, 0.0, 0.0, true},
        // Relaxed power-rail variants.
        SweepCase{0.40, 0.10, 0.0, 0.0, false},
        SweepCase{0.75, 0.10, 0.0, 0.0, false},
        SweepCase{0.88, 0.10, 0.0, 0.0, false},
        // Taller-cell extensions.
        SweepCase{0.50, 0.10, 0.05, 0.00, true},
        SweepCase{0.50, 0.10, 0.05, 0.03, true},
        SweepCase{0.70, 0.15, 0.08, 0.04, true},
        SweepCase{0.70, 0.15, 0.08, 0.04, false},
        // Single-height-only degenerate case.
        SweepCase{0.60, 0.00, 0.0, 0.0, true}));

/// Window-size sweep: every window large enough to hold the tallest cell
/// must keep the flow legal; quality improves monotonically-ish with Rx.
class WindowSweep
    : public ::testing::TestWithParam<std::pair<SiteCoord, SiteCoord>> {};

TEST_P(WindowSweep, LegalAtAnyWindow) {
    const auto [rx, ry] = GetParam();
    GenProfile p;
    p.name = "window";
    p.num_single = 900;
    p.num_double = 100;
    p.density = 0.6;
    p.seed = 555;
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    LegalizerOptions opts;
    opts.mll.rx = rx;
    opts.mll.ry = ry;
    const LegalizerStats stats = legalize_placement(gen.db, grid, opts);
    EXPECT_TRUE(stats.success);
    EXPECT_TRUE(check_legality(gen.db, grid).legal);
}

INSTANTIATE_TEST_SUITE_P(
    WindowGrid, WindowSweep,
    ::testing::Values(std::pair<SiteCoord, SiteCoord>{5, 2},
                      std::pair<SiteCoord, SiteCoord>{10, 2},
                      std::pair<SiteCoord, SiteCoord>{10, 5},
                      std::pair<SiteCoord, SiteCoord>{30, 5},
                      std::pair<SiteCoord, SiteCoord>{30, 1},
                      std::pair<SiteCoord, SiteCoord>{60, 8}));

/// Seed sweep: the whole flow is deterministic per seed but must succeed
/// for any seed.
class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, AnySeedSucceeds) {
    GenProfile p;
    p.name = "seed";
    p.num_single = 700;
    p.num_double = 90;
    p.density = 0.8;
    p.seed = GetParam();
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    LegalizerOptions opts;
    opts.seed = GetParam();
    const LegalizerStats stats = legalize_placement(gen.db, grid, opts);
    EXPECT_TRUE(stats.success) << stats.unplaced;
    EXPECT_TRUE(check_legality(gen.db, grid).legal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

}  // namespace
}  // namespace mrlg::test
