#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/ripup.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

/// The deadlock scenario rip-up exists for: single-row cells consume the
/// interior rows completely, leaving no paired-row capacity for a
/// double-height cell anywhere, even though total free area is plentiful.
struct Starved {
    Database db;
    SegmentGrid grid;
    CellId stuck;
};

Starved starved_design() {
    Starved s{empty_design(4, 40), SegmentGrid{}, CellId{}};
    s.grid = SegmentGrid::build(s.db);
    // Rows 1 and 2 filled to 100% by singles; rows 0 and 3 empty.
    for (int i = 0; i < 8; ++i) {
        add_placed(s.db, s.grid, "r1_" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 1, 5, 1);
        add_placed(s.db, s.grid, "r2_" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 2, 5, 1);
    }
    s.stuck = add_unplaced(s.db, "dbl", 18.0, 1.0, 4, 2, RailPhase::kOdd);
    return s;
}

TEST(Ripup, RescuesStarvedDoubleHeightCell) {
    Starved s = starved_design();
    // Plain MLL fails everywhere (rows 1-2 are full; pairs (0,1), (1,2),
    // (2,3) all include a full row; parity restricts to odd base rows).
    const MllPlan m = mll_place(s.db, s.grid, s.stuck, 18.0, 1.0);
    ASSERT_FALSE(m.success());

    RipupResult r = ripup_place(s.db, s.grid, s.stuck, 18.0, 1.0);
    EXPECT_TRUE(r.success);
    EXPECT_GT(r.evicted, 0u);
    EXPECT_TRUE(s.db.cell(s.stuck).placed());
    LegalityOptions lopts;
    lopts.check_rail_alignment = false;  // mixed phases in fixture
    const LegalityReport rep = check_legality(s.db, s.grid, lopts);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    EXPECT_TRUE(segment_lists_consistent(s.db, s.grid));
    // Rail parity of the rescued cell is honoured.
    EXPECT_TRUE(rail_compatible(s.db.cell(s.stuck).y(), 2,
                                RailPhase::kOdd));
}

TEST(Ripup, RollsBackExactlyWhenImpossible) {
    // Make re-insertion impossible: fill *every* row completely, so the
    // evicted singles have nowhere to go.
    Database db = empty_design(2, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    for (int i = 0; i < 4; ++i) {
        add_placed(db, grid, "a" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 0, 5, 1);
        add_placed(db, grid, "b" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 1, 5, 1);
    }
    const CellId stuck =
        add_unplaced(db, "dbl", 8.0, 0.0, 4, 2, RailPhase::kEven);
    std::vector<std::pair<bool, Point>> snapshot;
    for (const Cell& c : db.cells()) {
        snapshot.emplace_back(c.placed(), c.pos());
    }
    const RipupResult r = ripup_place(db, grid, stuck, 8.0, 0.0);
    EXPECT_FALSE(r.success);
    EXPECT_FALSE(db.cell(stuck).placed());
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        EXPECT_EQ(db.cells()[i].placed(), snapshot[i].first);
        if (snapshot[i].first) {
            // Only placed cells carry meaningful coordinates; the failed
            // target's internal position is scratch space.
            EXPECT_EQ(db.cells()[i].pos(), snapshot[i].second);
        }
    }
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(Ripup, SkipsMultiRowVictims) {
    // The footprint overlaps another double-height cell; rip-up must not
    // evict it (by policy) and should find a different candidate or fail.
    Database db = empty_design(4, 24);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId blocker =
        add_placed(db, grid, "blk", 8, 0, 4, 2, RailPhase::kEven);
    // Fill the rest of rows 0-1 with singles.
    for (int i = 0; i < 2; ++i) {
        add_placed(db, grid, "s0" + std::to_string(i),
                   static_cast<SiteCoord>(i * 4), 0, 4, 1);
        add_placed(db, grid, "s1" + std::to_string(i),
                   static_cast<SiteCoord>(i * 4), 1, 4, 1);
    }
    const CellId t = add_unplaced(db, "t", 8.0, 0.0, 4, 2,
                                  RailPhase::kEven);
    const RipupResult r = ripup_place(db, grid, t, 8.0, 0.0);
    // Rip-up succeeds without ever *evicting* the multi-row blocker: the
    // blocker stays placed (it may shift in x via re-insertion MLL, which
    // is allowed), and the result is legal.
    EXPECT_TRUE(r.success);
    EXPECT_TRUE(db.cell(blocker).placed());
    EXPECT_EQ(db.cell(blocker).y(), 0);  // rows never change
    LegalityOptions lopts;
    const LegalityReport rep = check_legality(db, grid, lopts);
    EXPECT_TRUE(rep.legal)
        << (rep.messages.empty() ? "" : rep.messages[0]);
    EXPECT_TRUE(segment_lists_consistent(db, grid));
}

TEST(Ripup, PlacedTargetAsserts) {
    Database db = empty_design(2, 20);
    SegmentGrid grid = SegmentGrid::build(db);
    const CellId c = add_placed(db, grid, "c", 0, 0, 4, 1);
    EXPECT_THROW(ripup_place(db, grid, c, 0.0, 0.0), AssertionError);
}

TEST(Ripup, LegalizerRescuesAdversarialOrderViaRipup) {
    // Input order places all singles first (the starvation order).
    // Algorithm 1 + free-slot fallback alone can deadlock; with rip-up the
    // legalizer must finish.
    Rng rng(97);
    Database db = empty_design(10, 100);
    for (int i = 0; i < 180; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 7));
        add_unplaced(db, "s" + std::to_string(i),
                     rng.uniform01() * (100 - w), rng.uniform01() * 9, w, 1);
    }
    for (int i = 0; i < 10; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        add_unplaced(db, "d" + std::to_string(i),
                     rng.uniform01() * (100 - w), rng.uniform01() * 8, w, 2);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts;
    opts.order = LegalizerOptions::Order::kInputOrder;  // adversarial
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    EXPECT_TRUE(stats.success) << stats.unplaced << " unplaced";
    EXPECT_TRUE(check_legality(db, grid).legal);
}

TEST(Ripup, CandidateBudgetRespected) {
    Starved s = starved_design();
    RipupOptions opts;
    opts.max_candidates = 0;
    const RipupResult r =
        ripup_place(s.db, s.grid, s.stuck, 18.0, 1.0, opts);
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.candidates_tried, 0u);
}

}  // namespace
}  // namespace mrlg::test
