/// Option-plumbing tests: the knobs on MllOptions / LegalizerOptions /
/// EnumerationOptions actually reach the algorithms and their effects are
/// observable (truncation flags, caps, disabled fallbacks).

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

TEST(Options, MllMaxPointsTruncationIsReported) {
    Database db = empty_design(1, 400);
    SegmentGrid grid = SegmentGrid::build(db);
    for (int i = 0; i < 40; ++i) {
        add_placed(db, grid, "c" + std::to_string(i),
                   static_cast<SiteCoord>(i * 10), 0, 4, 1);
    }
    const CellId t = add_unplaced(db, "t", 200.0, 0.0, 2, 1);
    MllOptions opts;
    opts.max_points = 3;
    const MllPlan r = mll_place(db, grid, t, 200.0, 0.0, opts);
    ASSERT_TRUE(r.success());  // truncated but still places from the cap
    EXPECT_TRUE(r.enumeration_truncated);
    EXPECT_LE(r.num_points, 3u);
}

TEST(Options, MllWindowRadiiChangeRegionSize) {
    Database db = empty_design(12, 200);
    SegmentGrid grid = SegmentGrid::build(db);
    for (int i = 0; i < 24; ++i) {
        add_placed(db, grid, "c" + std::to_string(i),
                   static_cast<SiteCoord>((i % 12) * 16),
                   static_cast<SiteCoord>(i / 12 + 5), 4, 1);
    }
    const CellId t = add_unplaced(db, "t", 100.0, 5.0, 4, 1);
    MllOptions small;
    small.rx = 5;
    small.ry = 0;
    const MllPlan rs = mll_place(db, grid, t, 100.0, 5.0, small);
    ASSERT_TRUE(rs.success());
    const std::size_t small_locals = rs.num_local_cells;
    mll_undo(db, grid, t, rs);

    MllOptions big;
    big.rx = 90;
    big.ry = 5;
    const MllPlan rb = mll_place(db, grid, t, 100.0, 5.0, big);
    ASSERT_TRUE(rb.success());
    EXPECT_GT(rb.num_local_cells, small_locals);
}

TEST(Options, LegalizerFallbackCanBeDisabled) {
    // With fallback and rip-up pushed past kMaxRounds, an ECO call that
    // needs them fails — proving free_slot_fallback_round gates the
    // mechanisms.
    for (const bool enable : {false, true}) {
        StarvedDesign d = ripup_starved_design();
        LegalizerOptions opts;
        opts.unplace_first = false;
        if (!enable) {
            opts.free_slot_fallback_round = kMaxRounds + 1;
        }
        // Rows 1-2 are full; the double-height cell then depends on
        // rip-up (free rows 0 and 3 are not paired).
        const LegalizerStats s = legalize_placement(d.db, d.grid, opts);
        EXPECT_EQ(s.success, enable) << "enable=" << enable;
        EXPECT_EQ(s.ripup_placements, enable ? 1u : 0u);
        EXPECT_EQ(s.rounds, enable ? opts.free_slot_fallback_round + 2
                                   : kMaxRounds);
    }
}

TEST(Options, MllOutcomeCountersAgreeWithAndWithoutMip) {
    // The per-attempt mll.* counters come from one function for every
    // solver: the MIP and the enumeration record the same attempts and
    // outcomes (points_evaluated differs by design — the MIP path counts
    // its one point).
    const char* const outcomes[] = {
        "mll.attempts", "mll.no_region", "mll.enumerations_truncated",
        "mll.no_insertion_point", "mll.commits", "mll.cells_shifted"};
    std::vector<std::uint64_t> counts[2];
    std::size_t failures[2] = {0, 0};
    for (const bool mip : {false, true}) {
        StarvedDesign d = ripup_starved_design();
        LegalizerOptions opts;
        opts.unplace_first = false;  // the ECO call that needs rip-up
        opts.mll.use_mip = mip;
        obs::Tracer tracer;
        obs::ScopedTracer install(tracer);
        const LegalizerStats s = legalize_placement(d.db, d.grid, opts);
        EXPECT_TRUE(s.success);
        failures[mip ? 1 : 0] = s.mll_failures;
        for (const char* name : outcomes) {
            counts[mip ? 1 : 0].push_back(tracer.counter(name));
        }
        EXPECT_GT(tracer.counter("mll.no_insertion_point"), 0u);
    }
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_EQ(failures[0], failures[1]);
}

TEST(Options, MipWithoutFeasiblePointCountsNoInsertionPoint) {
    // A full row: the region exists, but no insertion point fits.
    for (const bool mip : {false, true}) {
        Database db = empty_design(1, 20);
        SegmentGrid grid = SegmentGrid::build(db);
        for (int i = 0; i < 4; ++i) {
            add_placed(db, grid, "c" + std::to_string(i),
                       static_cast<SiteCoord>(5 * i), 0, 5, 1);
        }
        const CellId t = add_unplaced(db, "t", 8.0, 0.0, 3, 1);
        MllOptions opts;
        opts.use_mip = mip;
        obs::Tracer tracer;
        obs::ScopedTracer install(tracer);
        const MllPlan r = mll_place(db, grid, t, 8.0, 0.0, opts);
        EXPECT_EQ(r.status, MllStatus::kNoInsertionPoint) << "mip=" << mip;
        EXPECT_EQ(tracer.counter("mll.attempts"), 1u) << "mip=" << mip;
        EXPECT_EQ(tracer.counter("mll.no_insertion_point"), 1u)
            << "mip=" << mip;
    }
}

TEST(Options, LegalizerMaxRoundsBoundsWork) {
    // Three 5-site cells, one 10-site row: one cell never fits, and the
    // legalizer gives up after kMaxRounds.
    Database db = empty_design(1, 10);
    for (int i = 0; i < 3; ++i) {
        db.cell(db.add_cell(Cell("c" + std::to_string(i), 5, 1)))
            .set_gp(0.0, 0.0);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    const LegalizerStats s = legalize_placement(db, grid);
    EXPECT_FALSE(s.success);
    EXPECT_EQ(s.unplaced, 1u);
    EXPECT_EQ(s.rounds, kMaxRounds);
}

TEST(Options, UnplaceFirstFalseKeepsExistingPlacement) {
    Rng rng(77);
    RandomDesign d = random_legal_design(rng, 8, 100, 50, 0.2);
    std::vector<Point> before;
    for (const Cell& c : d.db.cells()) {
        before.push_back(c.pos());
    }
    // Add one new unplaced cell; incremental legalization must keep the
    // placed ones where possible.
    add_unplaced(d.db, "new", 50.0, 4.0, 3, 1);
    LegalizerOptions opts;
    opts.unplace_first = false;
    const LegalizerStats s = legalize_placement(d.db, d.grid, opts);
    EXPECT_TRUE(s.success);
    EXPECT_EQ(s.num_cells, d.db.movable_cells().size());
    // At most the local neighbourhood of the insertion moved.
    std::size_t moved = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        moved += d.db.cells()[i].pos() == before[i] ? 0 : 1;
    }
    EXPECT_LT(moved, 10u);
}

}  // namespace
}  // namespace mrlg::test
