#include <gtest/gtest.h>

#include "dp/detailed_placer.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

struct DpFixture {
    Database db;
    SegmentGrid grid;
};

/// Legalized design with a netlist; extra gp noise leaves HPWL slack for
/// the detailed placer to recover.
DpFixture legalized_design(std::uint64_t seed, std::size_t cells = 800,
                           double density = 0.5) {
    GenProfile p;
    p.name = "dp";
    p.num_single = cells * 9 / 10;
    p.num_double = cells / 10;
    p.density = density;
    p.seed = seed;
    p.gp_sigma_x = 3.0;
    p.gp_sigma_y = 0.8;
    GenResult gen = generate_benchmark(p);
    DpFixture f{std::move(gen.db), SegmentGrid{}};
    f.grid = SegmentGrid::build(f.db);
    LegalizerOptions opts;
    MRLG_ASSERT(legalize_placement(f.db, f.grid, opts).success,
                "fixture legalization failed");
    return f;
}

TEST(DetailedPlacer, ImprovesHpwlAndStaysLegal) {
    DpFixture f = legalized_design(11);
    const double before = hpwl_um(f.db, PositionSource::kLegalized);
    const DetailedPlacementStats stats = detailed_place(f.db, f.grid);
    EXPECT_GT(stats.moves_attempted, 0u);
    EXPECT_GT(stats.moves_accepted, 0u);
    EXPECT_LT(stats.hpwl_after_um, stats.hpwl_before_um);
    EXPECT_NEAR(stats.hpwl_before_um, before, before * 1e-9);
    // Cache bookkeeping agrees with a from-scratch evaluation.
    EXPECT_NEAR(stats.hpwl_after_um,
                hpwl_um(f.db, PositionSource::kLegalized),
                stats.hpwl_after_um * 1e-9 + 1e-9);
    const LegalityReport rep = check_legality(f.db, f.grid);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    EXPECT_TRUE(segment_lists_consistent(f.db, f.grid));
    EXPECT_GT(stats.improvement_pct(), 0.0);
}

TEST(DetailedPlacer, NeverIncreasesHpwl) {
    // Run it twice: the second run starts from an optimized placement and
    // must not make things worse (moves are accept-if-improves).
    DpFixture f = legalized_design(13);
    const DetailedPlacementStats s1 = detailed_place(f.db, f.grid);
    const DetailedPlacementStats s2 = detailed_place(f.db, f.grid);
    EXPECT_LE(s1.hpwl_after_um, s1.hpwl_before_um);
    EXPECT_LE(s2.hpwl_after_um, s2.hpwl_before_um + 1e-9);
    EXPECT_TRUE(check_legality(f.db, f.grid).legal);
}

TEST(DetailedPlacer, DeterministicForSameInput) {
    double results[2];
    for (int run = 0; run < 2; ++run) {
        DpFixture f = legalized_design(17);
        results[run] = detailed_place(f.db, f.grid).hpwl_after_um;
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(DetailedPlacer, NoNetsIsANoop) {
    Rng rng(19);
    RandomDesign d = random_legal_design(rng, 8, 100, 60, 0.2);
    const DetailedPlacementStats stats = detailed_place(d.db, d.grid);
    EXPECT_EQ(stats.moves_attempted, 0u);
    EXPECT_EQ(stats.hpwl_before_um, stats.hpwl_after_um);
}

TEST(DetailedPlacer, RespectsRailConstraint) {
    DpFixture f = legalized_design(23, 600, 0.5);
    detailed_place(f.db, f.grid);
    for (const Cell& c : f.db.cells()) {
        if (!c.fixed() && c.even_height()) {
            EXPECT_TRUE(rail_compatible(c.y(), c.height(), c.rail_phase()));
        }
    }
}

TEST(DetailedPlacer, RelaxedRailRecoversMore) {
    // Without the parity constraint double-height cells have twice the
    // candidate rows, so the optimizer should do at least as well.
    double imp[2];
    for (int mode = 0; mode < 2; ++mode) {
        DpFixture f = legalized_design(29, 700, 0.45);
        MllOptions opts;
        opts.check_rail = mode == 0;
        imp[mode] = detailed_place(f.db, f.grid, opts).improvement_pct();
        LegalityOptions lopts;
        lopts.check_rail_alignment = mode == 0;
        EXPECT_TRUE(check_legality(f.db, f.grid, lopts).legal);
    }
    EXPECT_GE(imp[1], imp[0] * 0.8);  // loose: different search landscapes
}

TEST(DetailedPlacer, ConvergesWithinPassLimit) {
    DpFixture f = legalized_design(31, 400, 0.4);
    // Each call runs at most two passes and starts where the last one
    // stopped. Accept-if-improves (exact HPWL delta, min-gain threshold)
    // converges well before 20 passes on 400 cells: some call within ten
    // accepts no move.
    int calls = 1;
    while (detailed_place(f.db, f.grid).moves_accepted > 0 && calls < 10) {
        ++calls;
    }
    EXPECT_LT(calls, 10);
    EXPECT_TRUE(check_legality(f.db, f.grid).legal);
}

TEST(SwapPass, SwapsTwoCellsInEachOthersSpot) {
    // a is wired to pins on the right, b to pins on the left, but they sit
    // on the wrong sides: one swap fixes both.
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    Cell anchor_l("pad_l", 2, 1, RailPhase::kEven, true);
    anchor_l.set_pos(0, 0);
    const CellId pl = db.add_cell(std::move(anchor_l));
    Cell anchor_r("pad_r", 2, 1, RailPhase::kEven, true);
    anchor_r.set_pos(98, 0);
    const CellId pr = db.add_cell(std::move(anchor_r));
    const CellId a = add_placed(db, grid, "a", 10, 1, 4, 1);
    const CellId b = add_placed(db, grid, "b", 80, 1, 4, 1);
    const NetId na = db.add_net("na");
    db.add_pin(a, na, 2.0, 0.5);
    db.add_pin(pr, na, 1.0, 0.5);  // a wants to be right
    const NetId nb = db.add_net("nb");
    db.add_pin(b, nb, 2.0, 0.5);
    db.add_pin(pl, nb, 1.0, 0.5);  // b wants to be left
    db.finalize_pins();
    const SwapStats s = swap_pass(db, grid, /*radius=*/100);
    EXPECT_GE(s.swaps_accepted, 1u);
    EXPECT_EQ(db.cell(a).x(), 80);
    EXPECT_EQ(db.cell(b).x(), 10);
    EXPECT_LT(s.hpwl_after_um, s.hpwl_before_um);
    EXPECT_TRUE(check_legality(db, grid).legal);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(SwapPass, NeverWorsensAndStaysLegal) {
    DpFixture f = legalized_design(43);
    const SwapStats s = swap_pass(f.db, f.grid);
    EXPECT_LE(s.hpwl_after_um, s.hpwl_before_um + 1e-9);
    EXPECT_NEAR(s.hpwl_after_um, hpwl_um(f.db, PositionSource::kLegalized),
                1e-6);
    EXPECT_TRUE(check_legality(f.db, f.grid).legal);
    EXPECT_TRUE(segment_lists_consistent(f.db, f.grid));
}

TEST(SwapPass, ComplementsMedianMoves) {
    // swap after move: combined recovery is at least the move-only one.
    double move_only = 0;
    double combined = 0;
    for (int mode = 0; mode < 2; ++mode) {
        DpFixture f = legalized_design(47);
        detailed_place(f.db, f.grid);
        if (mode == 1) {
            swap_pass(f.db, f.grid);
        }
        const double hp = hpwl_um(f.db, PositionSource::kLegalized);
        (mode == 0 ? move_only : combined) = hp;
        EXPECT_TRUE(check_legality(f.db, f.grid).legal);
    }
    EXPECT_LE(combined, move_only + 1e-9);
}

TEST(MllUndo, ExactlyRestoresState) {
    Rng rng(41);
    for (int trial = 0; trial < 10; ++trial) {
        RandomDesign d = random_legal_design(rng, 10, 120, 80, 0.3);
        // Snapshot all positions.
        std::vector<Point> snapshot;
        for (const Cell& c : d.db.cells()) {
            snapshot.push_back(c.pos());
        }
        const double px = static_cast<double>(rng.uniform(5, 110));
        const double py = static_cast<double>(rng.uniform(0, 9));
        const CellId t = add_unplaced(d.db, "t", px, py, 4, 1);
        const MllPlan r = mll_place(d.db, d.grid, t, px, py);
        if (!r.success()) {
            continue;
        }
        mll_undo(d.db, d.grid, t, r);
        EXPECT_FALSE(d.db.cell(t).placed());
        for (std::size_t i = 0; i < snapshot.size(); ++i) {
            EXPECT_EQ(d.db.cells()[i].pos(), snapshot[i]) << "trial "
                                                          << trial;
        }
        EXPECT_TRUE(segment_lists_consistent(d.db, d.grid));
    }
}

}  // namespace
}  // namespace mrlg::test
