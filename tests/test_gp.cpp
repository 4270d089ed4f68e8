#include <gtest/gtest.h>

#include "eval/metrics.hpp"
#include "gp/cg.hpp"
#include "gp/quadratic.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

// ---------------- CG solver ----------------

TEST(Cg, SolvesDiagonalSystem) {
    gp::SpdMatrix a(3);
    a.add_diag(0, 2.0);
    a.add_diag(1, 4.0);
    a.add_diag(2, 8.0);
    a.finalize();
    std::vector<double> x;
    const auto r = gp::solve_pcg(a, {2.0, 4.0, 16.0}, x);
    EXPECT_LT(r.residual, 1e-6);
    EXPECT_NEAR(x[0], 1.0, 1e-6);
    EXPECT_NEAR(x[1], 1.0, 1e-6);
    EXPECT_NEAR(x[2], 2.0, 1e-6);
}

TEST(Cg, SolvesLaplacianWithAnchor) {
    // Chain 0-1-2 with unit couplings, node 0 anchored to 0, node 2
    // pulled to 6: solution is linear ramp 2,4? Laplacian: solve exactly.
    gp::SpdMatrix a(3);
    auto couple = [&](std::size_t i, std::size_t j, double w) {
        a.add_diag(i, w);
        a.add_diag(j, w);
        a.add_offdiag(i, j, -w);
    };
    couple(0, 1, 1.0);
    couple(1, 2, 1.0);
    a.add_diag(0, 1.0);  // anchor weight at node 0 toward 0
    a.add_diag(2, 1.0);  // anchor at node 2 toward 6
    a.finalize();
    std::vector<double> b{0.0, 0.0, 6.0};
    std::vector<double> x;
    const auto r = gp::solve_pcg(a, b, x);
    EXPECT_LT(r.residual, 1e-6);
    // Verify A x = b by substitution.
    std::vector<double> y;
    a.multiply(x, y);
    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(y[static_cast<std::size_t>(i)],
                    b[static_cast<std::size_t>(i)], 1e-5);
    }
    EXPECT_LT(x[0], x[1]);
    EXPECT_LT(x[1], x[2]);
}

TEST(Cg, MergesDuplicateTriplets) {
    gp::SpdMatrix a(2);
    a.add_diag(0, 2.0);
    a.add_diag(1, 2.0);
    a.add_offdiag(0, 1, -0.5);
    a.add_offdiag(1, 0, -0.5);  // same entry, reversed order
    a.finalize();
    std::vector<double> y;
    a.multiply({1.0, 1.0}, y);
    EXPECT_NEAR(y[0], 1.0, 1e-12);
    EXPECT_NEAR(y[1], 1.0, 1e-12);
}

TEST(Cg, RandomSpdSystems) {
    Rng rng(401);
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t n = 20;
        gp::SpdMatrix a(n);
        for (std::size_t i = 0; i < n; ++i) {
            a.add_diag(i, 4.0 + rng.uniform01());
        }
        for (int e = 0; e < 40; ++e) {
            const auto i = static_cast<std::size_t>(rng.uniform(0, 19));
            const auto j = static_cast<std::size_t>(rng.uniform(0, 19));
            if (i != j) {
                a.add_offdiag(i, j, -0.05 - 0.05 * rng.uniform01());
            }
        }
        a.finalize();
        std::vector<double> b(n);
        for (auto& v : b) {
            v = rng.uniform01() * 10 - 5;
        }
        std::vector<double> x;
        const auto r = gp::solve_pcg(a, b, x, 500, 1e-8);
        std::vector<double> y;
        a.multiply(x, y);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_NEAR(y[i], b[i], 1e-4);
        }
        static_cast<void>(r);
    }
}

// ---------------- quadratic placer ----------------

/// A clustered netlist design: two groups of connected cells plus fixed
/// anchor pads on opposite die sides.
Database clustered_design(Rng& rng, int per_group) {
    Database db = empty_design(20, 200);
    Cell pad_l("pad_l", 2, 1, RailPhase::kEven, true);
    pad_l.set_pos(0, 10);
    const CellId pl = db.add_cell(std::move(pad_l));
    Cell pad_r("pad_r", 2, 1, RailPhase::kEven, true);
    pad_r.set_pos(198, 10);
    const CellId pr = db.add_cell(std::move(pad_r));
    std::vector<CellId> left;
    std::vector<CellId> right;
    for (int i = 0; i < per_group; ++i) {
        left.push_back(add_unplaced(db, "l" + std::to_string(i),
                                    100.0 + rng.uniform01(), 10.0, 3, 1));
        right.push_back(add_unplaced(db, "r" + std::to_string(i),
                                     100.0 + rng.uniform01(), 10.0, 3, 1));
    }
    auto wire = [&](CellId a, CellId b, int n) {
        const NetId net = db.add_net("n" + std::to_string(n));
        db.add_pin(a, net, 1.0, 0.5);
        db.add_pin(b, net, 1.0, 0.5);
    };
    int n = 0;
    for (int i = 0; i < per_group; ++i) {
        wire(left[static_cast<std::size_t>(i)], pl, n++);
        wire(right[static_cast<std::size_t>(i)], pr, n++);
        if (i > 0) {
            wire(left[static_cast<std::size_t>(i)],
                 left[static_cast<std::size_t>(i - 1)], n++);
            wire(right[static_cast<std::size_t>(i)],
                 right[static_cast<std::size_t>(i - 1)], n++);
        }
    }
    db.finalize_pins();
    return db;
}

TEST(QuadraticPlacer, PullsCellsTowardConnectedPads) {
    Rng rng(403);
    Database db = clustered_design(rng, 15);
    const gp::QuadraticStats stats = gp::quadratic_place(db);
    EXPECT_GT(stats.iterations_run, 0);
    double mean_l = 0;
    double mean_r = 0;
    for (int i = 0; i < 15; ++i) {
        mean_l += db.cell(db.find_cell("l" + std::to_string(i))).gp_x();
        mean_r += db.cell(db.find_cell("r" + std::to_string(i))).gp_x();
    }
    mean_l /= 15;
    mean_r /= 15;
    EXPECT_LT(mean_l, mean_r);       // groups separate toward their pads
    EXPECT_LT(mean_l, 100.0);
    EXPECT_GT(mean_r, 100.0);
}

TEST(QuadraticPlacer, ReducesHpwlVersusScatter) {
    Rng rng(405);
    Database db = clustered_design(rng, 20);
    // Scatter wildly first.
    for (const CellId c : db.movable_cells()) {
        db.cell(c).set_gp(rng.uniform01() * 195.0, rng.uniform01() * 19.0);
    }
    const double before = hpwl_um(db, PositionSource::kGlobalPlacement);
    gp::quadratic_place(db);
    const double after = hpwl_um(db, PositionSource::kGlobalPlacement);
    EXPECT_LT(after, before);
}

TEST(QuadraticPlacer, KeepsCellsInsideDie) {
    Rng rng(407);
    Database db = clustered_design(rng, 25);
    gp::quadratic_place(db);
    for (const CellId c : db.movable_cells()) {
        const Cell& cell = db.cell(c);
        EXPECT_GE(cell.gp_x(), 0.0);
        EXPECT_LE(cell.gp_x() + cell.width(), 200.0);
        EXPECT_GE(cell.gp_y(), 0.0);
        EXPECT_LE(cell.gp_y() + cell.height(), 20.0);
    }
}

TEST(QuadraticPlacer, SpreadingLimitsPeakUtilization) {
    Rng rng(409);
    Database db = clustered_design(rng, 40);
    const gp::QuadraticStats stats =
        gp::quadratic_place(db, /*iterations=*/16);
    // Without spreading everything would collapse onto two points; the
    // CDF-flattening must keep peak bin utilization bounded.
    EXPECT_LT(stats.final_max_util, 60.0);
    EXPECT_GT(stats.hpwl_um, 0.0);
}

TEST(QuadraticPlacer, EmptyDesignNoCrash) {
    Database db = empty_design(4, 40);
    const gp::QuadraticStats stats = gp::quadratic_place(db);
    EXPECT_EQ(stats.iterations_run, 0);
}

}  // namespace
}  // namespace mrlg::test
