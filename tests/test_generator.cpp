#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>

#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/profiles.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

GenProfile tiny_profile() {
    GenProfile p;
    p.name = "tiny";
    p.num_single = 300;
    p.num_double = 30;
    p.density = 0.5;
    p.seed = 5;
    return p;
}

TEST(Generator, ProducesRequestedCellMix) {
    const GenResult r = generate_benchmark(tiny_profile());
    EXPECT_TRUE(r.packed_ok);
    EXPECT_EQ(r.db.num_single_row_cells(), 300u);
    EXPECT_EQ(r.db.num_multi_row_cells(), 30u);
}

TEST(Generator, DensityNearTarget) {
    for (const double target : {0.3, 0.6, 0.85}) {
        GenProfile p = tiny_profile();
        p.density = target;
        const GenResult r = generate_benchmark(p);
        EXPECT_TRUE(r.packed_ok);
        EXPECT_NEAR(r.db.density(), target, 0.08) << target;
    }
}

TEST(Generator, CellsUnplacedWithGpInsideDie) {
    const GenResult r = generate_benchmark(tiny_profile());
    const Rect die = r.db.floorplan().die();
    for (const Cell& c : r.db.cells()) {
        EXPECT_FALSE(c.placed());
        EXPECT_GE(c.gp_x(), static_cast<double>(die.x));
        EXPECT_LE(c.gp_x() + c.width(), static_cast<double>(die.x_hi()));
        EXPECT_GE(c.gp_y(), 0.0);
        EXPECT_LE(c.gp_y() + c.height(),
                  static_cast<double>(r.db.floorplan().num_rows()));
    }
}

TEST(Generator, DeterministicForSeed) {
    const GenResult a = generate_benchmark(tiny_profile());
    const GenResult b = generate_benchmark(tiny_profile());
    ASSERT_EQ(a.db.num_cells(), b.db.num_cells());
    for (std::size_t i = 0; i < a.db.num_cells(); ++i) {
        EXPECT_EQ(a.db.cells()[i].gp_x(), b.db.cells()[i].gp_x());
        EXPECT_EQ(a.db.cells()[i].width(), b.db.cells()[i].width());
    }
    EXPECT_EQ(a.db.nets().size(), b.db.nets().size());
}

TEST(Generator, DifferentSeedsDiffer) {
    GenProfile p2 = tiny_profile();
    p2.seed = 6;
    const GenResult a = generate_benchmark(tiny_profile());
    const GenResult b = generate_benchmark(p2);
    int same = 0;
    for (std::size_t i = 0; i < a.db.num_cells(); ++i) {
        same += a.db.cells()[i].gp_x() == b.db.cells()[i].gp_x() ? 1 : 0;
    }
    EXPECT_LT(same, 30);
}

TEST(Generator, NetlistIsSpatiallyLocal) {
    GenProfile p = tiny_profile();
    p.net_radius = 20;
    const GenResult r = generate_benchmark(p);
    EXPECT_GT(r.db.nets().size(), 200u);
    // GP HPWL should be far below what random pin pairing would give
    // (which averages ~1/3 of the die extent per net per axis).
    const Rect die = r.db.floorplan().die();
    const double gp_hpwl = hpwl_um(r.db, PositionSource::kGlobalPlacement);
    const double random_est =
        static_cast<double>(r.db.nets().size()) *
        (die.w * r.db.floorplan().site_w_um() +
         die.h * r.db.floorplan().site_h_um()) /
        3.0;
    EXPECT_LT(gp_hpwl, random_est * 0.8);
    for (std::size_t n = 0; n < r.db.nets().size(); ++n) {
        EXPECT_GE(r.db.net_pins(NetId{static_cast<NetId::underlying>(n)})
                      .size(),
                  2u);
    }
}

TEST(Generator, BlockagesCarvedOut) {
    GenProfile p = tiny_profile();
    p.num_blockages = 3;
    p.blockage_area_frac = 0.05;
    const GenResult r = generate_benchmark(p);
    EXPECT_TRUE(r.packed_ok);
    EXPECT_EQ(r.db.floorplan().blockages().size(), 3u);
    // Density accounting still near target (blockages excluded from free
    // area).
    EXPECT_NEAR(r.db.density(), 0.5, 0.1);
}

TEST(Generator, DoubleHeightCellsShareRailPhase) {
    const GenResult r = generate_benchmark(tiny_profile());
    for (const Cell& c : r.db.cells()) {
        if (c.height() == 2) {
            EXPECT_EQ(c.rail_phase(), RailPhase::kEven);
        }
    }
}

/// FNV-1a over what makes a generated design: the site size, rows,
/// blockages and fences; each cell's size, rail phase, fixed flag, region
/// and gp bits; each pin's cell, net and offset bits.
std::uint64_t design_digest(const Database& db) {
    std::uint64_t h = 14695981039346656037ull;
    const auto add = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
    };
    const auto add_real = [&](double v) {
        add(std::bit_cast<std::uint64_t>(v));
    };
    const auto add_rect = [&](const Rect& r) {
        add(static_cast<std::uint64_t>(r.x));
        add(static_cast<std::uint64_t>(r.y));
        add(static_cast<std::uint64_t>(r.w));
        add(static_cast<std::uint64_t>(r.h));
    };
    const Floorplan& fp = db.floorplan();
    add_real(fp.site_w_um());
    add_real(fp.site_h_um());
    for (const Row& row : fp.rows()) {
        add_rect(Rect{row.x, row.y, row.num_sites, 1});
    }
    for (const Rect& b : fp.blockages()) {
        add_rect(b);
    }
    for (const Floorplan::Fence& f : fp.fences()) {
        add(static_cast<std::uint64_t>(f.region));
        add_rect(f.rect);
    }
    for (const Cell& c : db.cells()) {
        add(static_cast<std::uint64_t>(c.width()));
        add(static_cast<std::uint64_t>(c.height()));
        add(static_cast<std::uint64_t>(c.rail_phase()));
        add(c.fixed() ? 1 : 0);
        add(static_cast<std::uint64_t>(c.region()));
        add_real(c.gp_x());
        add_real(c.gp_y());
    }
    add(db.nets().size());
    for (const Pin& pin : db.pins()) {
        add(pin.cell.index());
        add(pin.net.index());
        add_real(pin.offset_x);
        add_real(pin.offset_y);
    }
    return h;
}

TEST(Generator, DesignDigestsPinned) {
    // bench_suite synthesizes its inputs with this code, so a change to
    // synthesis (the greedy packing included) would silently change the
    // benchmark's designs. These digests were taken before the free-slot
    // search walked outward instead of scanning whole rows.
    struct Case {
        const char* what;
        GenProfile profile;
        std::uint64_t digest;
    };
    std::vector<Case> cases;
    for (const Table1Entry& e : table1_benchmarks(0.02)) {
        if (e.profile.name == "des_perf_1") {  // density 0.91
            cases.push_back({"des_perf_1 at 0.02", e.profile,
                             5220360341829793964u});
        }
        if (e.profile.name == "superblue12") {  // 14 macro blockages
            cases.push_back({"superblue12 at 0.02", e.profile,
                             7986181106190921936u});
        }
    }
    GenProfile parallel;
    ASSERT_TRUE(parallel_profile("parallel_s", 1.0, 0, parallel));
    cases.push_back({"parallel_s", parallel, 383120252685011428u});
    GenProfile fenced;
    fenced.name = "fenced";
    fenced.num_single = 1800;
    fenced.num_double = 200;
    fenced.density = 0.6;
    fenced.fence_cell_frac = 0.2;
    fenced.seed = 31;
    cases.push_back({"fenced", fenced, 8581723930740955193u});
    ASSERT_EQ(cases.size(), 4u);
    for (const Case& c : cases) {
        const GenResult r = generate_benchmark(c.profile);
        EXPECT_TRUE(r.packed_ok) << c.what;
        EXPECT_EQ(design_digest(r.db), c.digest) << c.what;
    }
}

TEST(Profiles, TwentyBenchmarksWithPaperStats) {
    const auto all = table1_benchmarks(1.0);
    ASSERT_EQ(all.size(), 20u);
    EXPECT_EQ(all[0].profile.name, "des_perf_1");
    EXPECT_EQ(all[0].profile.num_single, 103842u);
    EXPECT_EQ(all[0].profile.num_double, 8802u);
    EXPECT_NEAR(all[0].profile.density, 0.91, 1e-9);
    EXPECT_NEAR(all[0].paper.rt_ilp_s, 4098.7, 1e-6);
    EXPECT_EQ(all[16].profile.name, "superblue12");
    EXPECT_EQ(all[16].profile.num_single, 1172586u);
}

TEST(Profiles, ScaleShrinksWithFloor) {
    const auto half = table1_benchmarks(0.5);
    EXPECT_EQ(half[0].profile.num_single, 51921u);
    const auto tiny = table1_benchmarks(1e-6);
    for (const auto& e : tiny) {
        EXPECT_GE(e.profile.num_single, 400u);
        EXPECT_GE(e.profile.num_double, 40u);
    }
}

TEST(Profiles, SeedsAreDistinct) {
    const auto all = table1_benchmarks(0.01);
    std::set<std::uint64_t> seeds;
    for (const auto& e : all) {
        seeds.insert(e.profile.seed);
    }
    EXPECT_EQ(seeds.size(), all.size());
}

}  // namespace
}  // namespace mrlg::test
