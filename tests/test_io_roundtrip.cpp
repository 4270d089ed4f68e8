/// Bookshelf round-trip property tests (satellite of the obs PR): a
/// written design reads back equal, writing is a fixed point after one
/// read, and the two design features with no native Bookshelf encoding —
/// floorplan blockages and odd rail phases — survive through the repro
/// dump path (qa::dump_repro encodes blockages as terminal nodes and rail
/// phases in the `.scenario` sidecar; replay reverses both).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "db/segment.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/lefdef.hpp"
#include "qa/fuzz.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

namespace fs = std::filesystem;

class IoRoundTripTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_rt_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string sub(const std::string& d) const {
        return (dir_ / d).string();
    }
    fs::path dir_;
};

std::string slurp(const std::string& path) {
    std::ifstream is(path);
    EXPECT_TRUE(is) << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/// Field-by-field database equality under the Bookshelf representation:
/// names, geometry, fixedness, gp positions (within float-text rounding),
/// fixed-cell placements, nets, pin offsets, and the floorplan rows.
void expect_equal_designs(const Database& a, const Database& b) {
    ASSERT_EQ(a.num_cells(), b.num_cells());
    for (std::size_t i = 0; i < a.num_cells(); ++i) {
        const Cell& ca = a.cells()[i];
        const CellId bid = b.find_cell(ca.name());
        ASSERT_TRUE(bid.valid()) << ca.name();
        const Cell& cb = b.cell(bid);
        EXPECT_EQ(ca.width(), cb.width()) << ca.name();
        EXPECT_EQ(ca.height(), cb.height()) << ca.name();
        EXPECT_EQ(ca.fixed(), cb.fixed()) << ca.name();
        // GP positions pass through 6-significant-digit text (default
        // ostream precision), so rounding is ~1e-4 at site scale.
        EXPECT_NEAR(ca.gp_x(), cb.gp_x(), 1e-3) << ca.name();
        EXPECT_NEAR(ca.gp_y(), cb.gp_y(), 1e-3) << ca.name();
        if (ca.fixed()) {
            ASSERT_TRUE(cb.placed()) << ca.name();
            EXPECT_EQ(ca.x(), cb.x()) << ca.name();
            EXPECT_EQ(ca.y(), cb.y()) << ca.name();
        }
    }
    ASSERT_EQ(a.nets().size(), b.nets().size());
    for (std::size_t n = 0; n < a.nets().size(); ++n) {
        const NetId id{static_cast<NetId::underlying>(n)};
        const std::span<const PinId> na = a.net_pins(id);
        const std::span<const PinId> nb = b.net_pins(id);
        ASSERT_EQ(na.size(), nb.size()) << a.net(id).name();
        for (std::size_t p = 0; p < na.size(); ++p) {
            const Pin& pa = a.pin(na[p]);
            const Pin& pb = b.pin(nb[p]);
            EXPECT_EQ(a.cell(pa.cell).name(), b.cell(pb.cell).name());
            // Pin offsets pass through 6-significant-digit text (default
            // ostream precision), so rounding is ~1e-5 at site scale.
            EXPECT_NEAR(pa.offset_x, pb.offset_x, 1e-4);
            EXPECT_NEAR(pa.offset_y, pb.offset_y, 1e-4);
        }
    }
    const Floorplan& fa = a.floorplan();
    const Floorplan& fb = b.floorplan();
    ASSERT_EQ(fa.num_rows(), fb.num_rows());
    for (SiteCoord r = 0; r < fa.num_rows(); ++r) {
        EXPECT_EQ(fa.row(r).x, fb.row(r).x) << "row " << r;
        EXPECT_EQ(fa.row(r).num_sites, fb.row(r).num_sites) << "row " << r;
    }
    EXPECT_NEAR(fa.site_w_um(), fb.site_w_um(), 1e-9);
    EXPECT_NEAR(fa.site_h_um(), fb.site_h_um(), 1e-9);
}

GenResult mixed_benchmark(int blockages) {
    GenProfile p;
    p.name = "rt";
    p.num_single = 80;
    p.num_double = 10;
    p.num_triple = 4;
    p.density = 0.45;
    p.seed = 5;
    p.num_blockages = blockages;
    p.blockage_area_frac = blockages > 0 ? 0.05 : 0.0;
    return generate_benchmark(p);
}

TEST_F(IoRoundTripTest, ReadWriteReadPreservesGeneratedDesign) {
    GenResult gen = mixed_benchmark(0);
    write_bookshelf(gen.db, sub("w1"), "rt", /*use_gp_positions=*/true);
    const BookshelfReadResult r1 = read_bookshelf(sub("w1") + "/rt.aux");
    write_bookshelf(r1.db, sub("w2"), "rt", /*use_gp_positions=*/true);
    const BookshelfReadResult r2 = read_bookshelf(sub("w2") + "/rt.aux");
    EXPECT_EQ(r1.design_name, r2.design_name);
    expect_equal_designs(r1.db, r2.db);
    // And the read design matches the original up to float-text rounding.
    expect_equal_designs(gen.db, r1.db);
}

TEST_F(IoRoundTripTest, WriteIsAFixedPointAfterOneRead) {
    GenResult gen = mixed_benchmark(0);
    write_bookshelf(gen.db, sub("w1"), "rt", /*use_gp_positions=*/true);
    const BookshelfReadResult r1 = read_bookshelf(sub("w1") + "/rt.aux");
    write_bookshelf(r1.db, sub("w2"), "rt", /*use_gp_positions=*/true);
    const BookshelfReadResult r2 = read_bookshelf(sub("w2") + "/rt.aux");
    write_bookshelf(r2.db, sub("w3"), "rt", /*use_gp_positions=*/true);
    for (const char* f : {"rt.aux", "rt.nodes", "rt.pl", "rt.nets",
                          "rt.scl"}) {
        EXPECT_EQ(slurp(sub("w2") + "/" + f), slurp(sub("w3") + "/" + f))
            << f;
    }
}

TEST_F(IoRoundTripTest, LegalizedPlacementRoundTripsThroughPl) {
    Database db = empty_design(6, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "s0", 3, 1, 4, 1);
    add_placed(db, grid, "s1", 10, 2, 3, 1);
    add_placed(db, grid, "d0", 20, 2, 2, 2);
    Cell pad("pad", 2, 1, RailPhase::kEven, true);
    pad.set_pos(30, 0);
    db.add_cell(std::move(pad));
    write_bookshelf(db, sub("w"), "legal", /*use_gp_positions=*/false);
    const BookshelfReadResult r = read_bookshelf(sub("w") + "/legal.aux");
    // Movable cells come back as GP input seeded at the legal slots.
    for (const char* name : {"s0", "s1", "d0"}) {
        const Cell& orig = db.cell(db.find_cell(name));
        const Cell& back = r.db.cell(r.db.find_cell(name));
        EXPECT_NEAR(back.gp_x(), static_cast<double>(orig.x()), 1e-6)
            << name;
        EXPECT_NEAR(back.gp_y(), static_cast<double>(orig.y()), 1e-6)
            << name;
        EXPECT_FALSE(back.fixed()) << name;
    }
    const Cell& back_pad = r.db.cell(r.db.find_cell("pad"));
    EXPECT_TRUE(back_pad.fixed());
    EXPECT_EQ(back_pad.x(), 30);
    EXPECT_EQ(back_pad.y(), 0);
}

TEST_F(IoRoundTripTest, BlockagesSurviveReproDump) {
    GenResult gen = mixed_benchmark(/*blockages=*/3);
    const std::size_t num_blk = gen.db.floorplan().blockages().size();
    ASSERT_GT(num_blk, 0u);
    const std::string aux = qa::dump_repro(
        gen.db, qa::FuzzScenario::kLegality, sub("repro"), "blk");
    BookshelfReadResult r = read_bookshelf(aux);
    // dump_repro materialized each blockage as a fixed terminal node...
    std::size_t terminals = 0;
    for (const Cell& c : r.db.cells()) {
        terminals += c.fixed() ? 1 : 0;
    }
    EXPECT_EQ(terminals, num_blk);
    // ...and freezing turns them back into floorplan blockages with the
    // original geometry.
    r.db.freeze_fixed_cells();
    ASSERT_EQ(r.db.floorplan().blockages().size(), num_blk);
    for (std::size_t i = 0; i < num_blk; ++i) {
        const Rect& want = gen.db.floorplan().blockages()[i];
        const Rect& got = r.db.floorplan().blockages()[i];
        EXPECT_EQ(got.x, want.x) << i;
        EXPECT_EQ(got.y, want.y) << i;
        EXPECT_EQ(got.w, want.w) << i;
        EXPECT_EQ(got.h, want.h) << i;
    }
}

TEST_F(IoRoundTripTest, RailPhasesSurviveScenarioSidecar) {
    Database db = empty_design(6, 40);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "even0", 2, 0, 3, 2, RailPhase::kEven);
    add_placed(db, grid, "odd0", 10, 1, 3, 2, RailPhase::kOdd);
    add_placed(db, grid, "odd1", 20, 3, 2, 2, RailPhase::kOdd);
    const std::string aux = qa::dump_repro(
        db, qa::FuzzScenario::kLegality, sub("repro"), "rails");

    // The sidecar names exactly the odd-phase cells.
    const std::string side = slurp(sub("repro") + "/rails.scenario");
    EXPECT_NE(side.find("scenario legality"), std::string::npos) << side;
    EXPECT_NE(side.find("odd odd0"), std::string::npos) << side;
    EXPECT_NE(side.find("odd odd1"), std::string::npos) << side;
    EXPECT_EQ(side.find("odd even0"), std::string::npos) << side;

    // A full replay reconstructs the phases and passes its oracle.
    EXPECT_EQ(qa::replay_repro(aux), "");
}

TEST_F(IoRoundTripTest, ScenarioSidecarNamesReplayBattery) {
    Database db = empty_design(4, 30);
    SegmentGrid grid = SegmentGrid::build(db);
    add_placed(db, grid, "a", 2, 0, 3, 1);
    add_placed(db, grid, "b", 8, 1, 3, 2);
    const std::string aux = qa::dump_repro(
        db, qa::FuzzScenario::kMllRoundtrip, sub("repro"), "mll");
    const std::string side = slurp(sub("repro") + "/mll.scenario");
    EXPECT_NE(side.find("scenario"), std::string::npos);
    EXPECT_EQ(qa::replay_repro(aux), "") << aux;
}

TEST_F(IoRoundTripTest, UnwritableFileIsAnErrorNamingIt) {
    // A directory squatting on a file's name makes that file unwritable.
    const GenResult gen = mixed_benchmark(0);
    for (const std::string ext : {".aux", ".nodes", ".nets", ".pl", ".scl"}) {
        const fs::path file = dir_ / ("squat" + ext) / ("rt" + ext);
        fs::create_directories(file);
        try {
            write_bookshelf(gen.db, file.parent_path().string(), "rt");
            ADD_FAILURE() << ext << ": no error";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "cannot write " + file.string());
        }
    }
    LefLibrary lef;
    lef.site_w_um = 0.2;
    lef.site_h_um = 1.6;
    const DefNames names{std::vector<std::string>(gen.db.num_cells(), "m"),
                         std::vector<std::string>(gen.db.pins().size(), "p"),
                         {}};
    const std::string def = sub("rt.def");
    fs::create_directories(def);
    try {
        write_def(gen.db, lef, def, "rt", names);
        ADD_FAILURE() << "DEF: no error";
    } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "cannot write " + def);
    }
}

}  // namespace
}  // namespace mrlg::test
