#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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
        // Unset on the way out, a throw included, so that no later test
        // reads the value.
        struct Unset {
            ~Unset() { ::unsetenv("MRLG_VALIDATE"); }
        } unset;
        return audit_level_from_env();
    };
    EXPECT_EQ(with_env(nullptr), AuditLevel::kOff);
    EXPECT_EQ(with_env(""), AuditLevel::kOff);
    EXPECT_EQ(with_env("off"), AuditLevel::kOff);
    EXPECT_EQ(with_env("cheap"), AuditLevel::kCheap);
    EXPECT_EQ(with_env("FULL"), AuditLevel::kFull);
    EXPECT_EQ(with_env("1"), AuditLevel::kCheap);
    EXPECT_EQ(with_env("2"), AuditLevel::kFull);
    EXPECT_EQ(with_env("None"), AuditLevel::kOff);
    EXPECT_THROW(with_env("bogus"), std::invalid_argument);
    EXPECT_THROW(with_env("ful"), std::invalid_argument);
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

/// The fixture's window: rows 0-1, x [0, 40). Its problem lists a (row 0),
/// b (row 0) and d (rows 0-1) as cells 0, 1 and 2.
const Rect kWindow{0, 0, 40, 2};

TEST(AuditLocal, CleanRegionAndProblemPass) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    const AuditReport rr = audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(rr.ok()) << rr.to_string();
    compute_minmax_placement(lp);
    const AuditReport after = audit_local_problem(lp);
    EXPECT_TRUE(after.ok()) << after.to_string();
}

TEST(AuditLocal, CorruptedRegionRowIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    ASSERT_TRUE(lp.has_row(0));
    // Stretch the chosen local span beyond its enclosing segment.
    lp.mutable_row_for_test(0).span.hi += 500;
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lr-span") || r.has("lr-segment"))
        << r.to_string();
}

TEST(AuditLocal, CorruptedProblemCellIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    ASSERT_GT(lp.num_cells(), 0);
    lp.mutable_cells()[0].w = 0;
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lr-cell-geometry")) << r.to_string();
}

TEST(AuditLocal, CorruptedRegionOffsetsAreCaught) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    ASSERT_TRUE(lp.has_row(0));
    ASSERT_TRUE(lp.has_row(1));
    // Row 1's slice starts inside row 0's: the rows no longer tile the
    // flat cell array.
    lp.mutable_row_for_test(1).begin -= 1;
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(r.has("lr-csr")) << r.to_string();
}

TEST(AuditLocal, StaleCarriedGeometryIsCaught) {
    Fixture f = make_fixture();
    const LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    // The problem copied b at x = 10; the cell has moved since.
    f.db.cell(f.b).set_x(12);
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(r.has("lr-geom")) << r.to_string();
}

TEST(AuditLocal, SwappedLocalCellsAreCaughtOnlyByTheOrderCheck) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    ASSERT_EQ(lp.num_cells(), 3);
    // Swap local cells 0 (a) and 2 (d) consistently: the cells with their
    // pos_in_row slots, and every row slot. Each slot still names its
    // cell, so only the (x, bottom row) order of the cells breaks.
    const std::vector<int> swapped = {2, 1, 0};
    std::vector<LpCell> cells;
    std::vector<int> pool;
    for (const int old : swapped) {
        LpCell c = lp.cell(old);
        c.pos0 = static_cast<int>(pool.size());
        for (int j = 0; j < c.h; ++j) {
            pool.push_back(lp.pos_in_row(old, j));
        }
        cells.push_back(c);
    }
    lp.mutable_cells() = cells;
    lp.mutable_pos_pool_for_test() = pool;
    for (int& i : lp.mutable_row_cell_pool_for_test()) {
        i = swapped[static_cast<std::size_t>(i)];
    }
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(r.has("lr-locals-sorted")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, OutOfOrderProblemCellIsCaughtOnlyByTheOrderCheck) {
    Database db = empty_design(2, 100);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "p", 10, 0, 4, 1);
    const CellId q = add_placed(db, grid, "q", 20, 1, 4, 1);
    LocalProblem lp = extract_local_region(db, grid, kWindow);
    ASSERT_EQ(lp.num_cells(), 2);
    ASSERT_TRUE(audit_local_region(db, grid, lp).ok());
    // q, alone on row 1, moves left of p in the problem and in the
    // Database: its row stays legal and its footprint current, but index 1
    // no longer follows index 0 in x, which the sweeps rely on.
    lp.mutable_cells()[1].x = 5;
    db.cell(q).set_x(5);
    const AuditReport r = audit_local_region(db, grid, lp);
    EXPECT_TRUE(r.has("lr-locals-sorted")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, AliasedPosInRowSlotIsCaughtOnlyByThePoolCheck) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
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
    const AuditReport r = audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(r.has("lr-pos-pool")) << r.to_string();
    EXPECT_EQ(r.issues.size(), 1u) << r.to_string();
}

TEST(AuditLocal, MinmaxBoundViolationIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    compute_minmax_placement(lp);
    ASSERT_GT(lp.num_cells(), 0);
    // Claim the leftmost feasible x is right of the current x.
    lp.mutable_cells()[0].xl = lp.cells()[0].x + 1;
    const AuditReport r = audit_local_problem(lp);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.has("lp-minmax")) << r.to_string();
}

/// One fault per check tag of the two local audits: `corrupt` breaks a
/// freshly extracted fixture problem (after min/max placement when
/// `minmax`) through its mutators, and the audit of that stage must
/// report `tag`.
struct LocalFault {
    const char* tag;
    bool minmax;
    void (*corrupt)(Fixture&, LocalProblem&);
};

std::vector<LocalFault> local_faults() {
    return {
        {"lr-csr", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_row_for_test(0).end += 1;  // overlaps row 1's slice
         }},
        {"lr-pos-pool", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_pos_pool_for_test()[0] = 1;  // a's slot names b
         }},
        {"lr-row-index", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_row_for_test(0).y = 1;
         }},
        {"lr-span", false,
         [](Fixture&, LocalProblem& lp) {
             Span& span = lp.mutable_row_for_test(1).span;
             span.hi = span.lo;  // empty
         }},
        {"lr-segment", false,
         [](Fixture&, LocalProblem& lp) {
             // Row 0 claims row 1's segment.
             lp.mutable_row_for_test(0).segment = lp.row_headers()[1].segment;
         }},
        {"lr-cell-ref", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_row_cell_pool_for_test()[0] = 7;  // 3 cells
         }},
        {"lr-cell-span", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_row_for_test(0).span.hi = 32;  // d ends at 34
         }},
        {"lr-cell-order", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_cells()[1].x = 3;  // b onto a (0..5)
         }},
        {"lr-cell-pos", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_cells()[0].k0 = 1;  // row 0 lists a below its rows
         }},
        {"lr-cell-geometry", false,
         [](Fixture&, LocalProblem& lp) { lp.mutable_cells()[2].h = 0; }},
        {"lr-cell-row", false,
         [](Fixture&, LocalProblem& lp) { lp.mutable_cells()[1].y = 1; }},
        {"lr-cell-rows", false,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_cells()[2].h = 3;  // d crosses row 2, outside
         }},
        {"lr-cell-window", false,
         [](Fixture&, LocalProblem& lp) { lp.mutable_cells()[0].x = -1; }},
        {"lr-cell-placed", false,
         [](Fixture& f, LocalProblem& lp) {
             lp.mutable_cells()[1].id = add_unplaced(f.db, "u", 10, 0, 5, 1);
         }},
        {"lr-geom", false,
         [](Fixture&, LocalProblem& lp) { lp.mutable_cells()[1].w = 4; }},
        {"lr-nonlocal-free", false,
         [](Fixture& f, LocalProblem& lp) {
             lp.mutable_cells()[1].id = f.a;  // b's slot is nobody's
         }},
        {"lr-locals-sorted", false,
         [](Fixture&, LocalProblem& lp) {
             std::swap(lp.mutable_cells()[0], lp.mutable_cells()[1]);
         }},
        {"lp-minmax", true,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_cells()[1].xr = lp.cell(1).x - 1;
         }},
        {"lp-minmax-span", true,
         [](Fixture&, LocalProblem& lp) { lp.mutable_cells()[0].xl = -1; }},
        {"lp-minmax-order", true,
         [](Fixture&, LocalProblem& lp) {
             lp.mutable_cells()[0].xr = lp.cell(1).xr;  // a's packing onto b's
         }},
    };
}

/// gtest names each instance by its tag, not by the struct's bytes.
void PrintTo(const LocalFault& fault, std::ostream* os) { *os << fault.tag; }

class AuditLocalFault : public ::testing::TestWithParam<LocalFault> {};

TEST_P(AuditLocalFault, FiresItsTag) {
    const LocalFault& fault = GetParam();
    Fixture f = make_fixture();
    LocalProblem lp = extract_local_region(f.db, f.grid, kWindow);
    ASSERT_EQ(lp.num_cells(), 3);
    ASSERT_TRUE(audit_local_region(f.db, f.grid, lp).ok());
    if (fault.minmax) {
        compute_minmax_placement(lp);
        ASSERT_TRUE(audit_local_problem(lp).ok());
    }
    fault.corrupt(f, lp);
    const AuditReport r = fault.minmax ? audit_local_problem(lp)
                                       : audit_local_region(f.db, f.grid, lp);
    EXPECT_TRUE(r.has(fault.tag)) << r.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AuditLocal, AuditLocalFault, ::testing::ValuesIn(local_faults()),
    [](const ::testing::TestParamInfo<LocalFault>& param) {
        std::string name = param.param.tag;
        std::replace(name.begin(), name.end(), '-', '_');
        return name;
    });

TEST(AuditLocal, OffByOneScanWinnerIsCaught) {
    Fixture f = make_fixture();
    LocalProblem lp =
        extract_local_region(f.db, f.grid, Rect{0, 0, 40, 2});
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
