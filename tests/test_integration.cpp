#include <gtest/gtest.h>

#include <filesystem>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "gp/quadratic.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/profiles.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// End-to-end: generate → legalize → verify, the bench_table1 inner loop.
TEST(Integration, GenerateLegalizeVerify) {
    GenProfile p;
    p.name = "int1";
    p.num_single = 800;
    p.num_double = 80;
    p.density = 0.6;
    p.num_blockages = 2;
    p.blockage_area_frac = 0.03;
    GenResult gen = generate_benchmark(p);
    ASSERT_TRUE(gen.packed_ok);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    const LegalizerStats s = legalize_placement(gen.db, grid);
    ASSERT_TRUE(s.success);
    const LegalityReport rep = check_legality(gen.db, grid);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    EXPECT_TRUE(segment_lists_consistent(gen.db, grid));
    // Quality sanity: small displacement, tiny HPWL change.
    EXPECT_LT(displacement_stats(gen.db).avg_sites, 20.0);
    EXPECT_LT(std::abs(hpwl_delta(gen.db)), 0.10);
}

TEST(Integration, HighDensityProfileLegalizes) {
    GenProfile p;
    p.name = "dense";
    p.num_single = 900;
    p.num_double = 90;
    p.density = 0.9;
    GenResult gen = generate_benchmark(p);
    ASSERT_TRUE(gen.packed_ok);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    const LegalizerStats s = legalize_placement(gen.db, grid);
    EXPECT_TRUE(s.success) << s.unplaced;
    EXPECT_TRUE(check_legality(gen.db, grid).legal);
}

TEST(Integration, RelaxedRailBeatsAlignedOnDisplacement) {
    // The paper's second experiment, end to end on one profile.
    double disp[2];
    double dhpwl[2];
    for (int mode = 0; mode < 2; ++mode) {
        GenProfile p;
        p.name = "relax";
        p.num_single = 700;
        p.num_double = 120;
        p.density = 0.6;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        LegalizerOptions opts;
        opts.mll.check_rail = mode == 0;
        ASSERT_TRUE(legalize_placement(gen.db, grid, opts).success);
        disp[mode] = displacement_stats(gen.db).avg_sites;
        dhpwl[mode] = std::abs(hpwl_delta(gen.db));
    }
    EXPECT_LT(disp[1], disp[0]);
    static_cast<void>(dhpwl);
}

TEST(Integration, QuadraticGpFeedsLegalizer) {
    // Full substrate chain: netlist → quadratic GP → MLL legalization.
    GenProfile p;
    p.name = "gpchain";
    p.num_single = 400;
    p.num_double = 40;
    p.density = 0.45;
    GenResult gen = generate_benchmark(p);
    gp::quadratic_place(gen.db, /*iterations=*/8);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    LegalizerOptions opts;
    opts.max_rounds = 128;  // quadratic GP can be denser locally
    const LegalizerStats s = legalize_placement(gen.db, grid, opts);
    EXPECT_TRUE(s.success) << s.unplaced;
    EXPECT_TRUE(check_legality(gen.db, grid).legal);
}

TEST(Integration, BookshelfExportOfLegalizedDesign) {
    namespace fs = std::filesystem;
    GenProfile p;
    p.name = "bs";
    p.num_single = 300;
    p.num_double = 30;
    p.density = 0.5;
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    ASSERT_TRUE(legalize_placement(gen.db, grid).success);

    const fs::path dir =
        fs::temp_directory_path() / "mrlg_integration_bs";
    fs::create_directories(dir);
    write_bookshelf(gen.db, dir.string(), "out", false);
    const BookshelfReadResult r =
        read_bookshelf((dir / "out.aux").string());
    // Re-imported legalized positions are legal without any moves.
    Database db2 = std::move(const_cast<Database&>(r.db));
    for (const CellId c : db2.movable_cells()) {
        Cell& cell = db2.cell(c);
        cell.set_pos(static_cast<SiteCoord>(std::lround(cell.gp_x())),
                     static_cast<SiteCoord>(std::lround(cell.gp_y())));
    }
    const SegmentGrid grid2 = SegmentGrid::build(db2);
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;  // phases not serialized
    EXPECT_TRUE(check_legality(db2, grid2, lopts).legal);
    fs::remove_all(dir);
}

TEST(Integration, IncrementalUseCaseGateSizing) {
    // The paper's motivating incremental scenario: resize a placed cell
    // and locally re-legalize it with MLL.
    Rng rng(501);
    RandomDesign d = random_legal_design(rng, 12, 140, 130, 0.25);
    // Pick a placed cell, remove it, grow it by 2 sites, re-insert.
    const CellId victim = d.db.movable_cells()[40];
    const double px = d.db.cell(victim).x();
    const double py = d.db.cell(victim).y();
    d.grid.remove(d.db, victim);
    // Widen: new cell object (width is immutable by design).
    const CellId fat = d.db.add_cell(
        Cell("fat", d.db.cell(victim).width() + 2, 1));
    d.db.cell(fat).set_gp(px, py);
    const MllResult r = mll_place(d.db, d.grid, fat, px, py);
    ASSERT_TRUE(r.success());
    LegalityOptions lopts;
    lopts.require_all_placed = false;  // the original victim stays out
    EXPECT_TRUE(check_legality(d.db, d.grid, lopts).legal);
    // Local disruption only: the re-insertion cost is bounded by the
    // window size.
    EXPECT_LT(r.real_cost_um / d.db.floorplan().site_w_um(), 80.0);
}

TEST(Integration, IncrementalUseCaseBufferInsertion) {
    // Buffer insertion: drop a brand-new small cell near a net's centre.
    Rng rng(503);
    RandomDesign d = random_legal_design(rng, 12, 140, 150, 0.25);
    int inserted = 0;
    for (int i = 0; i < 10; ++i) {
        const double px = static_cast<double>(rng.uniform(10, 130));
        const double py = static_cast<double>(rng.uniform(0, 11));
        const CellId buf =
            add_unplaced(d.db, "buf" + std::to_string(i), px, py, 2, 1);
        inserted += mll_place(d.db, d.grid, buf, px, py).success() ? 1 : 0;
    }
    EXPECT_EQ(inserted, 10);
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    EXPECT_TRUE(check_legality(d.db, d.grid, lopts).legal);
    EXPECT_TRUE(segment_lists_consistent(d.db, d.grid));
}

TEST(Integration, Table1ProfileSmokeRun) {
    // One scaled Table 1 entry through the whole harness path.
    auto entries = table1_benchmarks(0.003);
    GenProfile profile = entries[5].profile;  // fft_2 at tiny scale
    GenResult gen = generate_benchmark(profile);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    LegalizerOptions ours;
    const LegalizerStats s = legalize_placement(gen.db, grid, ours);
    ASSERT_TRUE(s.success);
    const DisplacementStats disp = displacement_stats(gen.db);
    EXPECT_GT(disp.avg_sites, 0.0);
    EXPECT_LT(disp.avg_sites, 30.0);
}

}  // namespace
}  // namespace mrlg::test
