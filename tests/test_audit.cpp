#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "check/audit.hpp"
#include "check/audit_local.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/minmax_placement.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace mrlg::test {
namespace {

/// Two single-height cells and one double-height cell, all placed legally.
/// The corruption tests each break exactly one invariant of this fixture.
struct Fixture {
    Database db;
    SegmentGrid grid;
    CellId a;  ///< 1x5 at (0, 0)
    CellId b;  ///< 1x5 at (10, 0)
    CellId d;  ///< 2x4 at (30, 0), even rail phase
};

Fixture make_fixture() {
    Fixture f{empty_design(4, 100), {}, {}, {}, {}};
    f.grid = SegmentGrid::build(f.db);
    f.a = add_placed(f.db, f.grid, "a", 0, 0, 5, 1);
    f.b = add_placed(f.db, f.grid, "b", 10, 0, 5, 1);
    f.d = add_placed(f.db, f.grid, "d", 30, 0, 4, 2);
    return f;
}

TEST(AuditLevel, FromEnv) {
    const auto with_env = [](const char* value) {
        if (value == nullptr) {
            ::unsetenv("MRLG_VALIDATE");
        } else {
            ::setenv("MRLG_VALIDATE", value, 1);
        }
        const AuditLevel got = audit_level_from_env();
        ::unsetenv("MRLG_VALIDATE");
        return got;
    };
    EXPECT_EQ(with_env(nullptr), AuditLevel::kOff);
    EXPECT_EQ(with_env(""), AuditLevel::kOff);
    EXPECT_EQ(with_env("off"), AuditLevel::kOff);
    EXPECT_EQ(with_env("cheap"), AuditLevel::kCheap);
    EXPECT_EQ(with_env("FULL"), AuditLevel::kFull);
    EXPECT_EQ(with_env("1"), AuditLevel::kCheap);
    EXPECT_EQ(with_env("2"), AuditLevel::kFull);
    EXPECT_EQ(with_env("bogus"), AuditLevel::kOff);
}

TEST(AuditReport, CapsRecordedIssues) {
    AuditReport r;
    for (std::size_t i = 0; i < AuditReport::kMaxIssues + 10; ++i) {
        r.add("test-check", "issue " + std::to_string(i));
    }
    EXPECT_EQ(r.issues.size(), AuditReport::kMaxIssues);
    EXPECT_EQ(r.suppressed, 10u);
    EXPECT_FALSE(r.ok());
}

TEST(Audit, CleanFixturePassesAllLevels) {
    Fixture f = make_fixture();
    EXPECT_TRUE(audit_database(f.db).ok());
    EXPECT_TRUE(
        audit_placement(f.db, f.grid, AuditLevel::kCheap).ok());
    const AuditReport full =
        audit_placement(f.db, f.grid, AuditLevel::kFull);
    EXPECT_TRUE(full.ok()) << full.to_string();
    EXPECT_NO_THROW(enforce(full));
}

TEST(Audit, CleanRandomDesignPassesFull) {
    Rng rng(17);
    RandomDesign rd = random_legal_design(rng, 12, 120, 80, 0.25);
    const AuditReport r =
        audit_placement(rd.db, rd.grid, AuditLevel::kFull);
    EXPECT_TRUE(r.ok()) << r.to_string();
}

// --- corrupted fixtures: each flips one invariant; the matching check ----

TEST(AuditCorruption, UnsortedListIsCaught) {
    Fixture f = make_fixture();
    // Move a past b without updating the segment list: order breaks.
    f.db.cell(f.a).set_x(20);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("list-order")) << r.to_string();
    EXPECT_THROW(enforce(r), AssertionError);
}

TEST(AuditCorruption, OverlapIsCaught) {
    Fixture f = make_fixture();
    // a now spans [8, 13), overlapping b's [10, 15).
    f.db.cell(f.a).set_x(8);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("list-order")) << r.to_string();
}

TEST(AuditCorruption, EscapedSegmentSpanIsCaught) {
    Fixture f = make_fixture();
    // a now spans [97, 102) but the row segment ends at 100.
    f.db.cell(f.a).set_x(97);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("list-span")) << r.to_string();
}

TEST(AuditCorruption, SlotGeometryDriftIsCaught) {
    Fixture f = make_fixture();
    // A direct Cell::set_x bypasses SegmentGrid::shift: b's slot still
    // says x = 10. The new position is legal, so only the slot check sees
    // it.
    f.db.cell(f.b).set_x(12);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_TRUE(r.has("list-geom")) << r.to_string();
    EXPECT_FALSE(r.has("list-order")) << r.to_string();
}

TEST(AuditCorruption, UnplacedWhileListedIsCaught) {
    Fixture f = make_fixture();
    f.db.cell(f.b).unplace();
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("list-placed")) << r.to_string();
}

TEST(AuditCorruption, RailParityViolationIsCaught) {
    Fixture f = make_fixture();
    // Move the even-phase double-height cell to an odd bottom row.
    f.grid.remove(f.db, f.d);
    f.grid.place(f.db, f.d, 30, 1);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("rail-parity")) << r.to_string();
}

TEST(AuditCorruption, MissingListEntryIsCaught) {
    Fixture f = make_fixture();
    // Erase the double-height cell from its bottom-row list only: it now
    // appears in 1 list instead of height() == 2.
    const SegmentId seg = f.grid.containing_segment(0, Span{30, 34});
    ASSERT_TRUE(seg.valid());
    auto& cells = f.grid.mutable_cells_for_test(seg);
    ASSERT_TRUE(std::erase_if(cells, [&](const SegmentSlot& s) {
                    return s.id == f.d;
                }) == 1);
    const AuditReport r = audit_segment_grid(f.db, f.grid);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("coverage")) << r.to_string();
}

TEST(AuditCorruption, FullLevelCatchesWhatListsCannot) {
    Fixture f = make_fixture();
    // Consistent lists, illegal geometry: move a onto b AND patch the
    // list order by also moving b. Both lists stay sorted, but the cells
    // overlap — only the independent kFull legality sweep re-derives it.
    f.db.cell(f.a).set_x(9);   // [9, 14)
    f.db.cell(f.b).set_x(12);  // [12, 17): sorted but overlapping
    const AuditReport cheap =
        audit_segment_grid(f.db, f.grid, AuditLevel::kCheap);
    const AuditReport full =
        audit_segment_grid(f.db, f.grid, AuditLevel::kFull);
    EXPECT_FALSE(full.ok());
    // The structural list-order check already sees the overlap (lists
    // store footprints), so cheap may flag it too — but the independent
    // sweep must flag it under "legality" regardless.
    EXPECT_TRUE(full.has("legality") || cheap.has("list-order"))
        << full.to_string();
}

TEST(AuditCorruption, DatabaseGatesZeroSizeCells) {
    // Zero-size cells are rejected at the insertion gate, so the
    // auditor's cell-geometry check is a backstop against memory
    // corruption only.
    Fixture f = make_fixture();
    EXPECT_THROW(f.db.add_cell(Cell("zero", 0, 1)), AssertionError);
}

TEST(AuditCorruption, NegativeFenceRegionIsCaught) {
    Fixture f = make_fixture();
    f.db.cell(f.a).set_region(-3);
    const AuditReport r = audit_database(f.db);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("cell-region")) << r.to_string();
}

/// The fixture with a three-pin net n0 (a, b, d) and a two-pin net n1
/// (a, d), finalized: pins 0-2 on n0, 3-4 on n1; a lists {0, 3}.
Fixture make_netlist_fixture() {
    Fixture f = make_fixture();
    const NetId n0 = f.db.add_net("n0");
    const NetId n1 = f.db.add_net("n1");
    f.db.add_pin(f.a, n0, 1.0, 0.5);
    f.db.add_pin(f.b, n0, 1.0, 0.5);
    f.db.add_pin(f.d, n0, 1.0, 1.0);
    f.db.add_pin(f.a, n1, 2.0, 0.5);
    f.db.add_pin(f.d, n1, 2.0, 1.0);
    f.db.finalize_pins();
    return f;
}

TEST(AuditPinIndex, FinalizedNetlistPasses) {
    const Fixture f = make_netlist_fixture();
    const AuditReport r = audit_database(f.db);
    EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(AuditPinIndex, StaleIndexIsCaught) {
    Fixture f = make_netlist_fixture();
    f.db.add_pin(f.b, NetId{1}, 1.0, 0.5);
    const AuditReport r = audit_database(f.db);
    EXPECT_TRUE(r.has("pin-link")) << r.to_string();
}

TEST(AuditPinIndex, DecreasingOffsetIsCaught) {
    Fixture f = make_netlist_fixture();
    PinIndex& index = f.db.mutable_cell_pin_index_for_test();
    index.offsets[1] = index.offsets[2] + 1;  // a's list ends past b's
    const AuditReport r = audit_database(f.db);
    EXPECT_TRUE(r.has("pin-link")) << r.to_string();
}

TEST(AuditPinIndex, DescendingListIsCaught) {
    Fixture f = make_netlist_fixture();
    PinIndex& index = f.db.mutable_cell_pin_index_for_test();
    std::swap(index.ids[0], index.ids[1]);  // a lists {3, 0}
    const AuditReport r = audit_database(f.db);
    EXPECT_TRUE(r.has("pin-link")) << r.to_string();
    EXPECT_NE(r.to_string().find("not ascending"), std::string::npos)
        << r.to_string();
}

TEST(AuditPinIndex, PinUnderTheWrongCellIsCaught) {
    Fixture f = make_netlist_fixture();
    PinIndex& index = f.db.mutable_cell_pin_index_for_test();
    // The lists are a {0, 3}, b {1}, d {2, 4}: b now lists d's pin #2.
    index.ids[2] = PinId{2};
    const AuditReport r = audit_database(f.db);
    EXPECT_TRUE(r.has("pin-link")) << r.to_string();
    EXPECT_NE(r.to_string().find("pin #1 not listed by its cell"),
              std::string::npos)
        << r.to_string();
}

TEST(AuditCorruption, ReportIsDeterministic) {
    const auto corrupt_and_render = [] {
        Fixture f = make_fixture();
        f.db.cell(f.a).set_x(20);
        f.db.cell(f.b).unplace();
        return audit_placement(f.db, f.grid, AuditLevel::kFull)
            .to_string();
    };
    EXPECT_EQ(corrupt_and_render(), corrupt_and_render());
}

// --- local-region / local-problem auditors -------------------------------

TEST(AuditLocal, CleanRegionAndProblemPass) {
    Fixture f = make_fixture();
    const Rect window{0, 0, 40, 2};
    const LocalRegion region =
        extract_local_region(f.db, f.grid, window);
    const AuditReport rr = audit_local_region(f.db, f.grid, region);
    EXPECT_TRUE(rr.ok()) << rr.to_string();

    LocalProblem lp = make_local_problem(f.db, f.grid, window);
    const AuditReport before = audit_local_problem(lp, false);
    EXPECT_TRUE(before.ok()) << before.to_string();
    compute_minmax_placement(lp);
    const AuditReport after = audit_local_problem(lp, true);
    EXPECT_TRUE(after.ok()) << after.to_string();
}

TEST(AuditLocal, CorruptedRegionRowIsCaught) {
    Fixture f = make_fixture();
    LocalRegion region =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_TRUE(region.has_row(0));
    // Stretch the chosen local span beyond its enclosing segment.
    region.mutable_row_for_test(0).span.hi += 500;
    const AuditReport r = audit_local_region(f.db, f.grid, region);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lr-span") || r.has("lr-segment"))
        << r.to_string();
}

TEST(AuditLocal, CorruptedProblemCellIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp =
        make_local_problem(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_GT(lp.num_cells(), 0);
    lp.mutable_cells()[0].w = 0;
    const AuditReport r = audit_local_problem(lp, false);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lp-cell-geometry")) << r.to_string();
}

TEST(AuditLocal, CorruptedRegionOffsetsAreCaught) {
    Fixture f = make_fixture();
    LocalRegion region =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_TRUE(region.has_row(0));
    ASSERT_TRUE(region.has_row(1));
    // Row 1's slice starts inside row 0's: the rows no longer tile the
    // flat cell array.
    region.mutable_row_for_test(1).begin -= 1;
    const AuditReport r = audit_local_region(f.db, f.grid, region);
    EXPECT_TRUE(r.has("lr-csr")) << r.to_string();
}

TEST(AuditLocal, StaleCarriedGeometryIsCaught) {
    Fixture f = make_fixture();
    const LocalRegion region =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_EQ(region.local_rects().size(), region.local_cells().size());
    // The region copied b at x = 10; the cell has moved since.
    f.db.cell(f.b).set_x(12);
    const AuditReport r = audit_local_region(f.db, f.grid, region);
    EXPECT_TRUE(r.has("lr-geom")) << r.to_string();
}

TEST(AuditLocal, SwappedRegionLocalIndicesAreCaughtOnlyByTheIndexCheck) {
    Fixture f = make_fixture();
    LocalRegion region =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_GE(region.row(0).cells.size(), 2u);
    // Swap the local indices of row 0's first two slots. The CellId lists
    // are untouched, so every check that reads cells by id still passes.
    std::vector<int>& local = region.mutable_local_pool_for_test();
    std::swap(local[0], local[1]);
    const AuditReport r = audit_local_region(f.db, f.grid, region);
    EXPECT_TRUE(r.has("lr-local-index")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 2u) << r.to_string();
}

TEST(AuditLocal, SwappedLocalCellsAreCaughtOnlyByTheOrderCheck) {
    Fixture f = make_fixture();
    LocalRegion region =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
    ASSERT_EQ(region.local_cells().size(), 3u);
    // Swap local cells 0 (a) and 2 (d) consistently: ids, carried
    // footprints and every row slot's local index. Each slot still names
    // its cell, so only the (x, bottom row) order of local_cells() breaks.
    std::swap(region.mutable_local_cells_for_test()[0],
              region.mutable_local_cells_for_test()[2]);
    std::swap(region.mutable_local_rects_for_test()[0],
              region.mutable_local_rects_for_test()[2]);
    for (int& li : region.mutable_local_pool_for_test()) {
        li = li == 0 ? 2 : li == 2 ? 0 : li;
    }
    const AuditReport r = audit_local_region(f.db, f.grid, region);
    EXPECT_TRUE(r.has("lr-locals-sorted")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, OutOfOrderProblemCellIsCaughtOnlyByTheOrderCheck) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "p", 10, 0, 4, 1);
    add_placed(db, grid, "q", 20, 1, 4, 1);
    LocalProblem lp = make_local_problem(db, grid, Rect{0, 0, 40, 2});
    ASSERT_EQ(lp.num_cells(), 2);
    ASSERT_TRUE(audit_local_problem(lp, false).ok());
    // q, alone on row 1, moves left of p: its row stays legal, but index 1
    // no longer follows index 0 in x, which the sweeps rely on.
    lp.mutable_cells()[1].x = 5;
    const AuditReport r = audit_local_problem(lp, false);
    EXPECT_TRUE(r.has("lp-by-x")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, AliasedPosInRowSlotIsCaughtOnlyByThePoolCheck) {
    Fixture f = make_fixture();
    LocalProblem lp =
        make_local_problem(f.db, f.grid, Rect{0, 0, 40, 2});
    // Cells a, b, d in x order; d (2 rows) is first on row 1, so its
    // second slot holds 0 — the same position a has on row 0.
    ASSERT_EQ(lp.num_cells(), 3);
    const int d = 2;
    ASSERT_EQ(lp.pos_in_row(d, 1), 0);
    ASSERT_EQ(lp.pos_in_row(0, 0), 0);
    // Point a at d's slot: a still reads the right position...
    lp.mutable_cells()[0].pos0 = lp.cell(d).pos0 + 1;
    for (int k = 0; k < lp.num_rows(); ++k) {
        const std::span<const int> row = lp.row(k).cells;
        for (std::size_t pos = 0; pos < row.size(); ++pos) {
            const LpCell& c = lp.cell(row[pos]);
            ASSERT_EQ(lp.pos_in_row(row[pos], k - c.k0),
                      static_cast<int>(pos));
        }
    }
    // ...so only the pool-tiling check sees that two cells share a slot
    // and a's own slot is orphaned.
    const AuditReport r = audit_local_problem(lp, false);
    EXPECT_TRUE(r.has("lp-pos-pool")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, MinmaxBoundViolationIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp =
        make_local_problem(f.db, f.grid, Rect{0, 0, 40, 2});
    compute_minmax_placement(lp);
    ASSERT_GT(lp.num_cells(), 0);
    // Claim the leftmost feasible x is right of the current x.
    lp.mutable_cells()[0].xl = lp.cells()[0].x + 1;
    const AuditReport r = audit_local_problem(lp, true);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lp-minmax")) << r.to_string();
}

TEST(AuditLocal, OffByOneScanWinnerIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp =
        make_local_problem(f.db, f.grid, Rect{0, 0, 40, 2});
    compute_minmax_placement(lp);
    TargetSpec t;
    t.w = 3;
    t.h = 1;
    t.pref_x = 12.0;
    t.pref_y = 0.0;
    const EnumerationResult er =
        enumerate_insertion_points(lp, build_insertion_intervals(lp, t.w), t);
    ASSERT_GE(er.points.size(), 2u);
    for (const bool exact : {false, true}) {
        EvalScratch scratch;
        const PointScan scan =
            scan_insertion_points(lp, er.points, t, exact, scratch);
        ASSERT_TRUE(scan.found());
        const PointEvaluator evaluate = point_evaluator(exact);
        const AuditReport clean =
            audit_point_scan(lp, er.points, t, evaluate, scan);
        EXPECT_TRUE(clean.ok()) << clean.to_string();

        // The winner's neighbour, with the winner's own evaluation: only
        // the index is wrong.
        PointScan off = scan;
        off.index = scan.index + 1 < er.points.size() ? scan.index + 1
                                                      : scan.index - 1;
        const AuditReport r =
            audit_point_scan(lp, er.points, t, evaluate, off);
        EXPECT_TRUE(r.has("scan-winner")) << r.to_string();
        EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
    }
}

// --- end-to-end: legalizer with in-run audits ----------------------------

TEST(AuditEndToEnd, LegalizerRunsCleanUnderFullValidation) {
    Rng rng(5);
    Database db = empty_design(10, 120);
    for (int i = 0; i < 60; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 7));
        add_unplaced(db, "s" + std::to_string(i),
                     rng.uniform01() * (120 - w), rng.uniform01() * 9, w,
                     1);
    }
    for (int i = 0; i < 10; ++i) {
        add_unplaced(db, "d" + std::to_string(i), rng.uniform01() * 116,
                     rng.uniform01() * 8, 3, 2);
    }
    db.freeze_fixed_cells();
    SegmentGrid grid = SegmentGrid::build(db);

    LegalizerOptions opts;
    opts.audit = AuditLevel::kFull;
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    EXPECT_TRUE(stats.success);
    EXPECT_GT(stats.audits_run, 0u);
    const AuditReport r = audit_placement(db, grid, AuditLevel::kFull);
    EXPECT_TRUE(r.ok()) << r.to_string();
}

}  // namespace
}  // namespace mrlg::test
