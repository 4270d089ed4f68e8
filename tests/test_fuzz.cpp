/// Randomized operation fuzzing: long interleaved sequences of the
/// library's mutating operations (MLL insert, remove, move, undo, rip-up)
/// with full legality + bookkeeping audits at checkpoints. This is the
/// test that catches cross-feature interactions no targeted test thinks
/// of.

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/mll.hpp"
#include "legalize/ripup.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

class FuzzSession {
public:
    FuzzSession(std::uint64_t seed, SiteCoord rows, SiteCoord sites)
        : rng_(seed), db_(empty_design(rows, sites)),
          grid_(SegmentGrid::build(db_)), rows_(rows), sites_(sites) {}

    void run(int ops) {
        for (int i = 0; i < ops; ++i) {
            const double dice = rng_.uniform01();
            if (dice < 0.45) {
                op_insert();
            } else if (dice < 0.65) {
                op_remove();
            } else if (dice < 0.90) {
                op_move();
            } else if (dice < 0.95) {
                op_undo_roundtrip();
            } else {
                op_ripup();
            }
            if (i % 50 == 49) {
                audit();
            }
        }
        audit();
    }

    std::size_t placed_count() const {
        std::size_t n = 0;
        for (const Cell& c : db_.cells()) {
            n += (!c.fixed() && c.placed()) ? 1 : 0;
        }
        return n;
    }

private:
    void audit() {
        LegalityOptions lopts;
        lopts.require_all_placed = false;
        lopts.check_rail_alignment = false;  // phases are mixed
        const LegalityReport rep = check_legality(db_, grid_, lopts);
        ASSERT_TRUE(rep.legal)
            << (rep.messages.empty() ? "?" : rep.messages[0]);
        ASSERT_TRUE(segment_lists_consistent(db_, grid_));
        // Rail parity is honoured for even-height placed cells because
        // every op goes through rail-checked paths.
        for (const Cell& c : db_.cells()) {
            if (!c.fixed() && c.placed() && c.even_height()) {
                ASSERT_TRUE(
                    rail_compatible(c.y(), c.height(), c.rail_phase()));
            }
        }
    }

    CellId random_placed() {
        std::vector<CellId> placed;
        for (std::size_t i = 0; i < db_.num_cells(); ++i) {
            const CellId id{static_cast<CellId::underlying>(i)};
            if (!db_.cell(id).fixed() && db_.cell(id).placed()) {
                placed.push_back(id);
            }
        }
        if (placed.empty()) {
            return CellId{};
        }
        return placed[static_cast<std::size_t>(rng_.uniform(
            0, static_cast<std::int64_t>(placed.size()) - 1))];
    }

    void op_insert() {
        const SiteCoord h = rng_.chance(0.25)
                                ? static_cast<SiteCoord>(rng_.uniform(2, 3))
                                : 1;
        const SiteCoord w = static_cast<SiteCoord>(rng_.uniform(1, 6));
        const RailPhase phase =
            rng_.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
        const double px =
            rng_.uniform01() * static_cast<double>(sites_ - w);
        const double py =
            rng_.uniform01() * static_cast<double>(rows_ - h);
        const CellId c = db_.add_cell(
            Cell("f" + std::to_string(counter_++), w, h, phase));
        db_.cell(c).set_gp(px, py);
        mll_place(db_, grid_, c, px, py);  // failure is fine
    }

    void op_remove() {
        const CellId c = random_placed();
        if (c.valid()) {
            grid_.remove(db_, c);
        }
    }

    void op_move() {
        const CellId c = random_placed();
        if (!c.valid()) {
            return;
        }
        const Cell& cell = db_.cell(c);
        const SiteCoord old_x = cell.x();
        const SiteCoord old_y = cell.y();
        const double px =
            rng_.uniform01() *
            static_cast<double>(sites_ - cell.width());
        const double py =
            rng_.uniform01() *
            static_cast<double>(rows_ - cell.height());
        grid_.remove(db_, c);
        if (!mll_place(db_, grid_, c, px, py).success()) {
            grid_.place(db_, c, old_x, old_y);  // guaranteed free
        }
    }

    void op_undo_roundtrip() {
        // Insert then immediately undo — state must be unchanged.
        const SiteCoord w = static_cast<SiteCoord>(rng_.uniform(1, 5));
        const double px =
            rng_.uniform01() * static_cast<double>(sites_ - w);
        const double py = rng_.uniform01() * static_cast<double>(rows_ - 1);
        const CellId c = db_.add_cell(
            Cell("u" + std::to_string(counter_++), w, 1));
        db_.cell(c).set_gp(px, py);
        const MllResult r = mll_place(db_, grid_, c, px, py);
        if (r.success()) {
            mll_undo(db_, grid_, c, r);
        }
    }

    void op_ripup() {
        const SiteCoord w = static_cast<SiteCoord>(rng_.uniform(1, 4));
        const double px =
            rng_.uniform01() * static_cast<double>(sites_ - w);
        const double py = rng_.uniform01() * static_cast<double>(rows_ - 2);
        const CellId c = db_.add_cell(
            Cell("r" + std::to_string(counter_++), w, 2, RailPhase::kEven));
        db_.cell(c).set_gp(px, py);
        ripup_place(db_, grid_, c, px, py);  // failure is fine
    }

    Rng rng_;
    Database db_;
    SegmentGrid grid_;
    SiteCoord rows_;
    SiteCoord sites_;
    int counter_ = 0;
};

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, LongRandomOperationSequences) {
    FuzzSession session(GetParam(), 10, 120);
    session.run(400);
    // The die fills up over time; most inserts must have landed.
    EXPECT_GT(session.placed_count(), 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(Fuzz, TinyDieStressTest) {
    // A tiny die saturates instantly; ops must stay correct at 100% fill.
    FuzzSession session(5, 4, 20);
    session.run(200);
}

TEST(Fuzz, TallDieStressTest) {
    // Many rows, narrow rows: exercises window clipping at both die edges.
    FuzzSession session(17, 40, 30);
    session.run(300);
}

}  // namespace
}  // namespace mrlg::test
