#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "eval/legality.hpp"
#include "io/lefdef.hpp"
#include "legalize/legalizer.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

namespace fs = std::filesystem;

/// tests/fixtures/top.{lef,def}, the pair that the mrlg_legalize flag
/// smoke test (tests/CMakeLists.txt) legalizes too.
const std::string kLefPath = std::string(MRLG_FIXTURE_DIR) + "/top.lef";
const std::string kDefPath = std::string(MRLG_FIXTURE_DIR) + "/top.def";
/// top.def with every component over two lines.
const std::string kSplitDefPath =
    std::string(MRLG_FIXTURE_DIR) + "/top_split.def";

std::string read_text(const std::string& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/// The line `msg` names when it starts with `<file>:<line>: `, else 0.
std::size_t line_in(const std::string& msg, const std::string& file) {
    if (!msg.starts_with(file + ":")) {
        return 0;
    }
    const char* end = msg.data() + msg.size();
    std::size_t line = 0;
    const auto [p, ec] =
        std::from_chars(msg.data() + file.size() + 1, end, line);
    return ec == std::errc{} && std::string_view(p, end).starts_with(": ")
               ? line
               : 0;
}

class LefDefTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_lefdef_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string write(const std::string& name, const std::string& text) {
        const fs::path p = dir_ / name;
        std::ofstream(p) << text;
        return p.string();
    }

    /// Reads the fixture pair with `from` replaced by `to` in the file
    /// `path`, and requires a ParseError that starts with `<file>:<line>: `
    /// and holds `what`. With `on_mutated_line` the error must name the
    /// mutated file and line.
    void expect_parse_error(const std::string& path, const std::string& from,
                            const std::string& to, const std::string& what,
                            bool on_mutated_line = false) {
        std::string lef = read_text(kLefPath);
        std::string def = read_text(kDefPath);
        std::string& text = path == kLefPath ? lef : def;
        const std::size_t at = text.find(from);
        ASSERT_NE(at, std::string::npos) << from;
        const auto mutated_line = static_cast<std::size_t>(
            1 + std::count(text.begin(), text.begin() + at, '\n'));
        text.replace(at, from.size(), to);
        const std::string lef_file = write("t.lef", lef);
        const std::string def_file = write("t.def", def);
        try {
            const LefLibrary lib = read_lef(lef_file);
            read_def(def_file, lib);
            ADD_FAILURE() << to << ": no ParseError";
        } catch (const ParseError& e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(what), std::string::npos) << to << ": " << msg;
            if (on_mutated_line) {
                EXPECT_EQ(line_in(msg, path == kLefPath ? lef_file : def_file),
                          mutated_line)
                    << to << ": " << msg;
            } else {
                EXPECT_GT(line_in(msg, lef_file) + line_in(msg, def_file), 0u)
                    << to << ": " << msg;
            }
        }
    }

    fs::path dir_;
};

TEST_F(LefDefTest, LefParsesSitesMacrosPins) {
    const LefLibrary lef = read_lef(kLefPath);
    EXPECT_NEAR(lef.site_w_um, 0.2, 1e-9);
    EXPECT_NEAR(lef.site_h_um, 1.6, 1e-9);
    EXPECT_NEAR(lef.dbu_per_micron, 1000.0, 1e-9);
    ASSERT_EQ(lef.macros.size(), 2u);
    const LefMacro* inv = lef.find_macro("INV");
    ASSERT_NE(inv, nullptr);
    EXPECT_NEAR(inv->w_um, 0.6, 1e-9);
    EXPECT_NEAR(inv->h_um, 1.6, 1e-9);
    ASSERT_EQ(inv->pins.size(), 2u);
    EXPECT_NEAR(inv->pins.at("A").offset_x_um, 0.1, 1e-9);
    EXPECT_NEAR(inv->pins.at("Z").offset_x_um, 0.5, 1e-9);
    const LefMacro* ff = lef.find_macro("FF2");
    ASSERT_NE(ff, nullptr);
    EXPECT_NEAR(ff->h_um, 3.2, 1e-9);  // double height
}

TEST_F(LefDefTest, DefBuildsDatabase) {
    const LefLibrary lef = read_lef(kLefPath);
    DefReadResult r = read_def(kDefPath, lef);
    EXPECT_EQ(r.design_name, "top");
    Database& db = r.db;
    EXPECT_EQ(db.floorplan().num_rows(), 8);
    EXPECT_EQ(db.floorplan().row(0).num_sites, 40);
    EXPECT_EQ(db.num_cells(), 4u);

    const Cell& u1 = db.cell(db.find_cell("u1"));
    EXPECT_EQ(u1.width(), 3);   // 0.6 / 0.2
    EXPECT_EQ(u1.height(), 1);
    EXPECT_NEAR(u1.gp_x(), 410.0 / 200.0, 1e-9);
    EXPECT_NEAR(u1.gp_y(), 30.0 / 1600.0, 1e-9);

    const Cell& ff = db.cell(db.find_cell("u_f1"));
    EXPECT_EQ(ff.height(), 2);
    EXPECT_EQ(ff.region(), 1);  // via GROUPS pattern u_f*

    const Cell& blk = db.cell(db.find_cell("blk"));
    EXPECT_TRUE(blk.fixed());
    EXPECT_TRUE(blk.placed());
    EXPECT_EQ(blk.x(), 10);
    EXPECT_EQ(blk.y(), 3);

    // Fence carved from REGIONS.
    ASSERT_EQ(db.floorplan().fences().size(), 1u);
    EXPECT_EQ(db.floorplan().fences()[0].rect, (Rect{20, 0, 20, 8}));

    // Nets: the die pin entry is skipped, offsets come from LEF pins.
    ASSERT_EQ(db.nets().size(), 2u);
    EXPECT_EQ(db.nets()[0].degree(), 2u);
    EXPECT_EQ(db.nets()[1].degree(), 2u);
    const Pin& z = db.pin(db.nets()[0].pins()[0]);
    EXPECT_NEAR(z.offset_x, 0.5 / 0.2, 1e-9);
}

TEST_F(LefDefTest, EndToEndLegalizeFromDef) {
    const LefLibrary lef = read_lef(kLefPath);
    DefReadResult r = read_def(kDefPath, lef);
    r.db.freeze_fixed_cells();
    SegmentGrid grid = SegmentGrid::build(r.db);
    const LegalizerStats stats = legalize_placement(r.db, grid);
    EXPECT_TRUE(stats.success);
    EXPECT_TRUE(check_legality(r.db, grid).legal);
    // The fence member stayed in its region.
    const Cell& ff = r.db.cell(r.db.find_cell("u_f1"));
    EXPECT_GE(ff.x(), 20);
}

TEST_F(LefDefTest, DefRoundTripThroughWriter) {
    const LefLibrary lef = read_lef(kLefPath);
    DefReadResult r = read_def(kDefPath, lef);
    r.db.freeze_fixed_cells();
    SegmentGrid grid = SegmentGrid::build(r.db);
    ASSERT_TRUE(legalize_placement(r.db, grid).success);
    const std::string out = write("out.def", "");
    write_def(r.db, lef, out, "top_legal");
    // The written DEF re-tokenizes: components placed, rows present.
    std::ifstream in(out);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("DESIGN top_legal ;"), std::string::npos);
    EXPECT_NE(text.find("COMPONENTS 4 ;"), std::string::npos);
    EXPECT_NE(text.find("PLACED"), std::string::npos);
    EXPECT_NE(text.find("FIXED"), std::string::npos);
    EXPECT_NE(text.find("END DESIGN"), std::string::npos);
    EXPECT_EQ(text.find("UNPLACED"), std::string::npos);
}

TEST_F(LefDefTest, MissingFileThrows) {
    EXPECT_THROW(read_lef((dir_ / "nope.lef").string()), ParseError);
}

TEST_F(LefDefTest, UnknownMacroThrows) {
    const LefLibrary lef = read_lef(kLefPath);
    const std::string def = write("bad.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 NO_SUCH_MACRO + PLACED ( 0 0 ) N ;
END COMPONENTS
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), ParseError);
}

TEST_F(LefDefTest, NonUniformRowsThrow) {
    const LefLibrary lef = read_lef(kLefPath);
    const std::string def = write("gap.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
ROW r1 core 0 4800 N DO 10 BY 1 STEP 200 0 ;
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), ParseError);
}

TEST_F(LefDefTest, MisalignedMacroThrows) {
    const std::string lef_text = R"(
SITE core
  SIZE 0.2 BY 1.6 ;
END core
MACRO ODD
  SIZE 0.3 BY 1.6 ;
END ODD
)";
    const LefLibrary lef = read_lef(write("odd.lef", lef_text));
    const std::string def = write("odd.def", R"(
DESIGN top ;
UNITS DISTANCE MICRONS 1000 ;
ROW r0 core 0 0 N DO 10 BY 1 STEP 200 0 ;
COMPONENTS 1 ;
- u1 ODD + PLACED ( 0 0 ) N ;
END COMPONENTS
END DESIGN
)");
    EXPECT_THROW(read_def(def, lef), ParseError);
}

// Malformed input: each case is one mutation of the fixture pair.

TEST_F(LefDefTest, TrailingJunkInPositionThrows) {
    expect_parse_error(kDefPath, "( 410 30 )", "( 410xyz 30 )",
                       "expected a number, got '410xyz'", true);
}

TEST_F(LefDefTest, NanPositionThrows) {
    expect_parse_error(kDefPath, "( 410 30 )", "( nan 30 )",
                       "expected a number, got 'nan'", true);
}

TEST_F(LefDefTest, HugeRowCountThrows) {
    expect_parse_error(kDefPath, "core 0 0 N DO 40", "core 0 0 N DO 4e30",
                       "DO count out of range", true);
}

TEST_F(LefDefTest, TrailingJunkInMacroSizeThrows) {
    expect_parse_error(kLefPath, "SIZE 0.6 BY", "SIZE 0.6abc BY",
                       "expected a number, got '0.6abc'", true);
}

TEST_F(LefDefTest, DuplicateComponentThrows) {
    expect_parse_error(kDefPath, "- u2 INV", "- u1 INV",
                       "duplicate component name u1");
}

TEST_F(LefDefTest, ZeroSizeMacroThrows) {
    expect_parse_error(kLefPath, "SIZE 0.6 BY", "SIZE 0 BY",
                       "must be at least one site wide");
}

TEST_F(LefDefTest, OtherNodeAndRangeChecksThrow) {
    expect_parse_error(kDefPath, "( 410 30 )", "( 4e30 30 )",
                       "component u1 lies outside the coordinate range");
    expect_parse_error(kDefPath, "core 0 0 N DO 40", "core 0 0 N DO 40.5",
                       "DO count out of range");
    expect_parse_error(kLefPath, "SIZE 0.8 BY 3.2", "SIZE 0.8 BY 16",
                       "component u_f1 is movable and taller than the core");
    expect_parse_error(kDefPath, "MICRONS 1000", "MICRONS 0",
                       "UNITS DISTANCE MICRONS must be positive");
    expect_parse_error(kDefPath, "( 4000 0 ) ( 8000 12800 )",
                       "( 4000 0 ) ( 4000 12800 )",
                       "region fence1 has an empty or out-of-range rectangle");
    expect_parse_error(kDefPath, "- fence1 ( 4000 0 ) ( 8000 12800 ) ;",
                       "- fence1 ( 4000 0 ) ( 8000 12800 ) ;\n"
                       "- fence2 ( 6000 0 ) ( 8000 1600 ) ;",
                       "region fence2 overlaps another region");
    expect_parse_error(kDefPath, "+ REGION fence1", "+ REGION fence9",
                       "GROUPS references unknown region fence9");
    expect_parse_error(kDefPath, "- n2 ( u2 Z )", "- n1 ( u2 Z )",
                       "duplicate net name n1");
    expect_parse_error(kLefPath, "MICRONS 1000", "MICRONS 0",
                       "UNITS DATABASE MICRONS must be positive", true);
}

TEST_F(LefDefTest, WholeFileErrorsNameOnlyTheFile) {
    const std::string lef = write("nosite.lef", "MACRO INV\nEND INV\n");
    try {
        read_lef(lef);
        ADD_FAILURE() << "no ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(std::string(e.what()),
                  lef + ": LEF defines no SITE with a SIZE");
    }
    const std::string def = write("norows.def", "DESIGN top ;\n");
    try {
        read_def(def, read_lef(kLefPath));
        ADD_FAILURE() << "no ParseError";
    } catch (const ParseError& e) {
        EXPECT_EQ(std::string(e.what()), def + ": DEF has no ROW statements");
    }
}

TEST_F(LefDefTest, ComponentsOverTwoLinesLoadTheSameCells) {
    const LefLibrary lef = read_lef(kLefPath);
    const DefReadResult a = read_def(kDefPath, lef);
    const DefReadResult b = read_def(kSplitDefPath, lef);
    ASSERT_EQ(a.db.num_cells(), b.db.num_cells());
    for (std::size_t i = 0; i < a.db.num_cells(); ++i) {
        const Cell& ca = a.db.cells()[i];
        const Cell& cb = b.db.cells()[i];
        EXPECT_EQ(ca.name(), cb.name());
        EXPECT_EQ(ca.width(), cb.width()) << ca.name();
        EXPECT_EQ(ca.height(), cb.height()) << ca.name();
        EXPECT_EQ(ca.gp_x(), cb.gp_x()) << ca.name();
        EXPECT_EQ(ca.gp_y(), cb.gp_y()) << ca.name();
        EXPECT_EQ(ca.fixed(), cb.fixed()) << ca.name();
        EXPECT_EQ(ca.placed(), cb.placed()) << ca.name();
        EXPECT_EQ(ca.region(), cb.region()) << ca.name();
    }
    EXPECT_EQ(a.db.nets().size(), b.db.nets().size());
    EXPECT_EQ(a.db.pins().size(), b.db.pins().size());
}

TEST_F(LefDefTest, ReadsAPipe) {
    // A FIFO has no size to read ahead of time: the reader reads it to
    // its end, as it does a shell's <(cat top.lef).
    const std::string fifo = (dir_ / "top.lef").string();
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    const std::jthread writer(
        [&] { std::ofstream(fifo) << read_text(kLefPath); });
    const LefLibrary lef = read_lef(fifo);
    EXPECT_EQ(lef.macros.size(), 2u);
    EXPECT_NEAR(lef.site_h_um, 1.6, 1e-9);
}

}  // namespace
}  // namespace mrlg::test
