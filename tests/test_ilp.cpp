#include <gtest/gtest.h>

#include "ilp/branch_bound.hpp"
#include "ilp/model.hpp"
#include "ilp/simplex.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

using ilp::Model;
using ilp::Sense;

TEST(Model, BuildAndEvaluate) {
    Model m;
    const int x = m.add_var(0, 10, 2.0);
    const int y = m.add_var(0, 10, 3.0);
    m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 8.0);
    EXPECT_EQ(m.num_vars(), 2);
    EXPECT_EQ(m.num_constraints(), 1);
    EXPECT_NEAR(m.objective_value({2.0, 3.0}), 13.0, 1e-12);
    EXPECT_TRUE(m.feasible({2.0, 3.0}));
    EXPECT_FALSE(m.feasible({5.0, 5.0}));   // violates constraint
    EXPECT_FALSE(m.feasible({-1.0, 0.0}));  // violates bound
}

TEST(Model, EmptyDomainAsserts) {
    Model m;
    EXPECT_THROW(m.add_var(3, 2, 0.0), AssertionError);
}

TEST(Simplex, UnconstrainedSitsAtLowerBounds) {
    Model m;
    m.add_var(2, 10, 1.0);
    m.add_var(-5, 5, 3.0);
    const auto r = ilp::solve_lp(m);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.x[0], 2.0, 1e-6);
    EXPECT_NEAR(r.x[1], -5.0, 1e-6);
    EXPECT_NEAR(r.obj, 2.0 - 15.0, 1e-6);
}

TEST(Simplex, NegativeObjectivePushesToUpperBound) {
    Model m;
    m.add_var(0, 7, -1.0);
    const auto r = ilp::solve_lp(m);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.x[0], 7.0, 1e-6);
}

TEST(Simplex, ClassicTwoVarLp) {
    // min -x - 2y s.t. x + y <= 4, x + 3y <= 6, 0 <= x,y <= 10.
    // Optimum at (3, 1): obj -5.
    Model m;
    const int x = m.add_var(0, 10, -1.0);
    const int y = m.add_var(0, 10, -2.0);
    m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 4.0);
    m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::kGe, 0.0);  // slack
    m.add_constraint({{x, 1.0}, {y, 3.0}}, Sense::kLe, 6.0);
    const auto r = ilp::solve_lp(m);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.obj, -5.0, 1e-6);
    EXPECT_NEAR(r.x[0], 3.0, 1e-6);
    EXPECT_NEAR(r.x[1], 1.0, 1e-6);
}

TEST(Simplex, EqualityConstraint) {
    // min x + y s.t. x + y == 5, x >= 2.
    Model m;
    const int x = m.add_var(2, 10, 1.0);
    const int y = m.add_var(0, 10, 1.0);
    m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 5.0);
    const auto r = ilp::solve_lp(m);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.obj, 5.0, 1e-6);
}

TEST(Simplex, InfeasibleDetected) {
    Model m;
    const int x = m.add_var(0, 1, 1.0);
    m.add_constraint({{x, 1.0}}, Sense::kGe, 5.0);
    EXPECT_EQ(ilp::solve_lp(m).status, ilp::LpStatus::kInfeasible);
}

TEST(Simplex, ConflictingEqualitiesInfeasible) {
    Model m;
    const int x = m.add_var(0, 10, 0.0);
    m.add_constraint({{x, 1.0}}, Sense::kEq, 3.0);
    m.add_constraint({{x, 1.0}}, Sense::kEq, 4.0);
    EXPECT_EQ(ilp::solve_lp(m).status, ilp::LpStatus::kInfeasible);
}

TEST(Simplex, BoundOverridesForBranching) {
    Model m;
    const int x = m.add_var(0, 10, -1.0);
    static_cast<void>(x);
    std::vector<double> lb{0.0};
    std::vector<double> ub{4.0};
    const auto r = ilp::solve_lp(m, &lb, &ub);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.x[0], 4.0, 1e-6);
    lb[0] = 6.0;
    ub[0] = 5.0;
    EXPECT_EQ(ilp::solve_lp(m, &lb, &ub).status,
              ilp::LpStatus::kInfeasible);
}

TEST(Simplex, DifferenceChainLikeLegalization) {
    // min |x1-3| + |x2-4| st x2 >= x1 + 5 — the 1-D legalization core:
    // d1 >= x1-3, d1 >= 3-x1 etc. Optimal total displacement 4 (e.g.
    // x1=1,x2=6 → 2+2... actually x1=0..3 trade-off: min is 4).
    Model m;
    const int x1 = m.add_var(0, 20, 0.0);
    const int x2 = m.add_var(0, 20, 0.0);
    const int d1 = m.add_var(0, 100, 1.0);
    const int d2 = m.add_var(0, 100, 1.0);
    m.add_constraint({{d1, 1.0}, {x1, -1.0}}, Sense::kGe, -3.0);
    m.add_constraint({{d1, 1.0}, {x1, 1.0}}, Sense::kGe, 3.0);
    m.add_constraint({{d2, 1.0}, {x2, -1.0}}, Sense::kGe, -4.0);
    m.add_constraint({{d2, 1.0}, {x2, 1.0}}, Sense::kGe, 4.0);
    m.add_constraint({{x2, 1.0}, {x1, -1.0}}, Sense::kGe, 5.0);
    const auto r = ilp::solve_lp(m);
    ASSERT_EQ(r.status, ilp::LpStatus::kOptimal);
    EXPECT_NEAR(r.obj, 4.0, 1e-6);
}

TEST(BranchBound, PureLpPassesThrough) {
    Model m;
    m.add_var(0, 10, -1.0);
    const auto r = ilp::solve_mip(m);
    ASSERT_EQ(r.status, ilp::MipStatus::kOptimal);
    EXPECT_NEAR(r.obj, -10.0, 1e-6);
}

TEST(BranchBound, SimpleIntegerRounding) {
    // min -x s.t. 2x <= 7, x integer → x = 3 (LP gives 3.5).
    Model m;
    const int x = m.add_var(0, 10, -1.0, /*integer=*/true);
    m.add_constraint({{x, 2.0}}, Sense::kLe, 7.0);
    const auto r = ilp::solve_mip(m);
    ASSERT_EQ(r.status, ilp::MipStatus::kOptimal);
    EXPECT_NEAR(r.x[0], 3.0, 1e-6);
    EXPECT_NEAR(r.obj, -3.0, 1e-6);
}

TEST(BranchBound, Knapsack) {
    // max 10a + 6b + 4c st 1a+1b+1c <= 2 binaries → min form.
    Model m;
    const int a = m.add_var(0, 1, -10.0, true);
    const int b = m.add_var(0, 1, -6.0, true);
    const int c = m.add_var(0, 1, -4.0, true);
    m.add_constraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::kLe, 2.0);
    const auto r = ilp::solve_mip(m);
    ASSERT_EQ(r.status, ilp::MipStatus::kOptimal);
    EXPECT_NEAR(r.obj, -16.0, 1e-6);
    EXPECT_NEAR(r.x[a], 1.0, 1e-6);
    EXPECT_NEAR(r.x[b], 1.0, 1e-6);
    EXPECT_NEAR(r.x[c], 0.0, 1e-6);
}

TEST(BranchBound, FractionalKnapsackNeedsBranching) {
    // max 6a + 10b st 3a + 4b <= 6, binaries. LP relax: b=1, a=2/3.
    // Integer optimum: b=1 (obj 10) beats a=1 (6).
    Model m;
    const int a = m.add_var(0, 1, -6.0, true);
    const int b = m.add_var(0, 1, -10.0, true);
    m.add_constraint({{a, 3.0}, {b, 4.0}}, Sense::kLe, 6.0);
    const auto r = ilp::solve_mip(m);
    ASSERT_EQ(r.status, ilp::MipStatus::kOptimal);
    EXPECT_NEAR(r.obj, -10.0, 1e-6);
}

TEST(BranchBound, InfeasibleInteger) {
    // 2x == 3 with x integer in [0,5] → infeasible.
    Model m;
    const int x = m.add_var(0, 5, 1.0, true);
    m.add_constraint({{x, 2.0}}, Sense::kEq, 3.0);
    EXPECT_EQ(ilp::solve_mip(m).status, ilp::MipStatus::kInfeasible);
}

TEST(BranchBound, BigMGapSelection) {
    // Tiny version of the legalization gap choice: target at x in [0,10],
    // either left of a wall cell at [4,7] (x+3<=4) or right of it (x>=7).
    // Preference 5 → nearest choice costs min(|4-3-5|?,...) — left gives
    // x<=1 (cost >=4), right gives x>=7 (cost 2). Optimal x=7.
    Model m;
    const double big = 100.0;
    const int x = m.add_var(0, 10, 0.0);
    const int d = m.add_var(0, 100, 1.0);
    const int b = m.add_var(0, 1, 0.0, true);  // 1 = right side
    m.add_constraint({{d, 1.0}, {x, -1.0}}, Sense::kGe, -5.0);
    m.add_constraint({{d, 1.0}, {x, 1.0}}, Sense::kGe, 5.0);
    // left: x + 3 <= 4 + M b;  right: x >= 7 - M(1-b).
    m.add_constraint({{x, 1.0}, {b, -big}}, Sense::kLe, 1.0);
    m.add_constraint({{x, 1.0}, {b, -big}}, Sense::kGe, 7.0 - big);
    const auto r = ilp::solve_mip(m);
    ASSERT_EQ(r.status, ilp::MipStatus::kOptimal);
    EXPECT_NEAR(r.obj, 2.0, 1e-6);
    EXPECT_NEAR(r.x[x], 7.0, 1e-6);
    EXPECT_NEAR(r.x[b], 1.0, 1e-6);
}

TEST(BranchBound, RandomizedAgainstExhaustive) {
    // Random small binary programs vs exhaustive enumeration.
    Rng rng(211);
    for (int trial = 0; trial < 30; ++trial) {
        Model m;
        const int n = 4;
        std::vector<double> obj(n);
        for (int i = 0; i < n; ++i) {
            obj[static_cast<std::size_t>(i)] =
                static_cast<double>(rng.uniform(-9, 9));
            m.add_var(0, 1, obj[static_cast<std::size_t>(i)], true);
        }
        // Two random <= constraints.
        for (int k = 0; k < 2; ++k) {
            std::vector<ilp::Term> terms;
            for (int i = 0; i < n; ++i) {
                terms.push_back(
                    {i, static_cast<double>(rng.uniform(-4, 4))});
            }
            m.add_constraint(std::move(terms), Sense::kLe,
                             static_cast<double>(rng.uniform(0, 6)));
        }
        const auto r = ilp::solve_mip(m);
        // Exhaustive.
        double best = std::numeric_limits<double>::max();
        for (int mask = 0; mask < (1 << n); ++mask) {
            std::vector<double> x(n);
            for (int i = 0; i < n; ++i) {
                x[static_cast<std::size_t>(i)] = (mask >> i) & 1;
            }
            if (m.feasible(x)) {
                best = std::min(best, m.objective_value(x));
            }
        }
        if (best == std::numeric_limits<double>::max()) {
            EXPECT_EQ(r.status, ilp::MipStatus::kInfeasible)
                << "trial " << trial;
        } else {
            ASSERT_EQ(r.status, ilp::MipStatus::kOptimal)
                << "trial " << trial;
            EXPECT_NEAR(r.obj, best, 1e-6) << "trial " << trial;
        }
    }
}

}  // namespace
}  // namespace mrlg::test
