/// Parameterized MLL pipeline property sweeps: for every (target shape ×
/// evaluator × rail mode) grid point, run many randomized local problems
/// and check the pipeline's core invariants stage by stage.

#include <gtest/gtest.h>

#include "eval/legality.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/exact_local.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/mll.hpp"
#include "legalize/realization.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

struct MllCase {
    SiteCoord target_w;
    SiteCoord target_h;
    bool check_rail;
    bool exact_eval;
};

std::ostream& operator<<(std::ostream& os, const MllCase& c) {
    return os << "w" << c.target_w << "h" << c.target_h
              << (c.check_rail ? "_rail" : "_norail")
              << (c.exact_eval ? "_exact" : "_approx");
}

class MllSweep : public ::testing::TestWithParam<MllCase> {};

TEST_P(MllSweep, InsertionsKeepAllInvariants) {
    const MllCase& c = GetParam();
    Rng rng(900 + static_cast<std::uint64_t>(c.target_w * 10 + c.target_h));
    int successes = 0;
    for (int trial = 0; trial < 12; ++trial) {
        RandomDesign d = random_legal_design(rng, 12, 130, 95, 0.3, 3);
        const double px = static_cast<double>(rng.uniform(5, 120));
        const double py = static_cast<double>(
            rng.uniform(0, 11 - c.target_h));
        const CellId t = add_unplaced(d.db, "target", px, py, c.target_w,
                                      c.target_h, RailPhase::kEven);
        MllOptions opts;
        opts.check_rail = c.check_rail;
        opts.exact_evaluation = c.exact_eval;
        const MllResult r = mll_place(d.db, d.grid, t, px, py, opts);
        if (!r.success()) {
            // Abort semantics: target untouched.
            EXPECT_FALSE(d.db.cell(t).placed());
            continue;
        }
        ++successes;
        // Rail parity honoured for even-height targets.
        if (c.check_rail && c.target_h % 2 == 0) {
            EXPECT_EQ(r.y % 2, 0);
        }
        LegalityOptions lopts;
        lopts.check_rail_alignment = false;  // random designs mix phases
        lopts.require_all_placed = false;
        const LegalityReport rep = check_legality(d.db, d.grid, lopts);
        EXPECT_TRUE(rep.legal)
            << (rep.messages.empty() ? "?" : rep.messages[0]);
        EXPECT_TRUE(segment_lists_consistent(d.db, d.grid));
        // Reported cost is consistent: est_cost equals realized cost when
        // evaluating exactly.
        if (c.exact_eval) {
            EXPECT_NEAR(r.est_cost_um, r.real_cost_um, 1e-6);
        }
    }
    EXPECT_GT(successes, 4) << "sweep point never exercised the pipeline";
}

INSTANTIATE_TEST_SUITE_P(
    TargetShapes, MllSweep,
    ::testing::Values(MllCase{1, 1, true, false},
                      MllCase{4, 1, true, false},
                      MllCase{8, 1, true, false},
                      MllCase{2, 2, true, false},
                      MllCase{4, 2, true, false},
                      MllCase{3, 3, true, false},
                      MllCase{2, 2, false, false},
                      MllCase{4, 1, true, true},
                      MllCase{4, 2, true, true},
                      MllCase{3, 3, true, true},
                      MllCase{6, 2, false, true}));

/// Exact local oracle optimality: for every enumerated point and every
/// integer x inside it, the realized cost is never below the oracle's
/// chosen optimum. Parameterized over target shapes.
class OracleSweep
    : public ::testing::TestWithParam<std::pair<SiteCoord, SiteCoord>> {};

TEST_P(OracleSweep, OracleIsGlobalMinimum) {
    const auto [w, h] = GetParam();
    Rng rng(700 + static_cast<std::uint64_t>(w * 10 + h));
    for (int trial = 0; trial < 6; ++trial) {
        RandomDesign d = random_legal_design(rng, 8, 60, 30, 0.35);
        TargetSpec target;
        target.w = w;
        target.h = h;
        target.pref_x = static_cast<double>(rng.uniform(0, 55));
        target.pref_y = static_cast<double>(rng.uniform(0, 7 - h));
        target.rail_phase = RailPhase::kEven;

        LocalProblem lp =
            make_local_problem(d.db, d.grid, Rect{0, 0, 60, 8});
        const ExactLocalSolution sol = solve_local_exact(lp, target);
        if (!sol.feasible) {
            continue;
        }
        // Exhaustive check over every point and every feasible x.
        const auto intervals = build_insertion_intervals(lp, target.w);
        const auto res =
            enumerate_insertion_points(lp, intervals, target, {});
        double global_min = std::numeric_limits<double>::max();
        for (const auto& pt : res.points) {
            for (SiteCoord x = pt.lo; x <= pt.hi; ++x) {
                const Realization real =
                    realize_insertion(lp, pt, x, target.w);
                const double cost =
                    real.moved_sites * lp.site_w_um() +
                    std::abs(static_cast<double>(x) - target.pref_x) *
                        lp.site_w_um() +
                    std::abs(static_cast<double>(lp.y0() + pt.k0) -
                             target.pref_y) *
                        lp.site_h_um();
                global_min = std::min(global_min, cost);
            }
        }
        EXPECT_NEAR(sol.cost_um, global_min, 1e-6)
            << "w" << w << "h" << h << " trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OracleSweep,
    ::testing::Values(std::pair<SiteCoord, SiteCoord>{1, 1},
                      std::pair<SiteCoord, SiteCoord>{3, 1},
                      std::pair<SiteCoord, SiteCoord>{6, 1},
                      std::pair<SiteCoord, SiteCoord>{2, 2},
                      std::pair<SiteCoord, SiteCoord>{4, 2},
                      std::pair<SiteCoord, SiteCoord>{2, 3}));

/// Hinge-minimizer sweep over structured hinge patterns.
struct HingeCase {
    int num_a;
    int num_b;
    SiteCoord spread;
};

class HingeSweep : public ::testing::TestWithParam<HingeCase> {};

TEST_P(HingeSweep, MatchesBruteForce) {
    const HingeCase& c = GetParam();
    Rng rng(300 + static_cast<std::uint64_t>(c.num_a * 7 + c.num_b));
    for (int trial = 0; trial < 40; ++trial) {
        HingeSet h;
        for (int i = 0; i < c.num_a; ++i) {
            h.a.push_back(
                static_cast<SiteCoord>(rng.uniform(-c.spread, c.spread)));
        }
        for (int i = 0; i < c.num_b; ++i) {
            h.b.push_back(
                static_cast<SiteCoord>(rng.uniform(-c.spread, c.spread)));
        }
        h.pref = static_cast<double>(rng.uniform(-c.spread, c.spread)) +
                 rng.uniform01();
        const SiteCoord lo =
            static_cast<SiteCoord>(rng.uniform(-c.spread, 0));
        const SiteCoord hi =
            static_cast<SiteCoord>(rng.uniform(0, c.spread));
        const auto [x, cost] = minimize_hinge_cost(h, lo, hi);
        EXPECT_GE(x, lo);
        EXPECT_LE(x, hi);
        EXPECT_NEAR(cost, brute_force_hinge_min(h.a, h.b, h.pref, lo, hi),
                    1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Patterns, HingeSweep,
                         ::testing::Values(HingeCase{0, 0, 20},
                                           HingeCase{1, 0, 20},
                                           HingeCase{0, 1, 20},
                                           HingeCase{3, 3, 30},
                                           HingeCase{10, 2, 50},
                                           HingeCase{2, 10, 50},
                                           HingeCase{20, 20, 100}));

}  // namespace
}  // namespace mrlg::test
