#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>

#include "io/bookshelf.hpp"
#include "io/benchmark_gen.hpp"
#include "test_helpers.hpp"

namespace mrlg::test {
namespace {

namespace fs = std::filesystem;

class BookshelfTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_bs_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    std::string path(const std::string& f) const {
        return (dir_ / f).string();
    }
    fs::path dir_;
};

Database small_design() {
    Database db = empty_design(4, 60);
    add_unplaced(db, "a", 5.3, 1.2, 4, 1);
    add_unplaced(db, "b", 20.0, 2.0, 3, 2);
    Cell pad("pad", 2, 1, RailPhase::kEven, true);
    pad.set_pos(50, 0);
    db.add_cell(std::move(pad));
    const NetId n = db.add_net("n0");
    db.add_pin(db.find_cell("a"), n, 2.0, 0.5);
    db.add_pin(db.find_cell("b"), n, 1.5, 1.0);
    db.add_pin(db.find_cell("pad"), n, 1.0, 0.5);
    return db;
}

TEST_F(BookshelfTest, RoundTripPreservesDesign) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", /*use_gp_positions=*/true);
    const BookshelfReadResult r = read_bookshelf(path("t.aux"));
    EXPECT_EQ(r.design_name, "t");
    const Database& db2 = r.db;
    ASSERT_EQ(db2.num_cells(), 3u);
    const Cell& a = db2.cell(db2.find_cell("a"));
    EXPECT_EQ(a.width(), 4);
    EXPECT_EQ(a.height(), 1);
    EXPECT_NEAR(a.gp_x(), 5.3, 1e-6);
    EXPECT_NEAR(a.gp_y(), 1.2, 1e-6);
    const Cell& b = db2.cell(db2.find_cell("b"));
    EXPECT_EQ(b.height(), 2);
    const Cell& pad = db2.cell(db2.find_cell("pad"));
    EXPECT_TRUE(pad.fixed());
    EXPECT_EQ(pad.x(), 50);
    ASSERT_EQ(db2.nets().size(), 1u);
    EXPECT_EQ(db2.nets()[0].degree(), 3u);
    EXPECT_EQ(db2.floorplan().num_rows(), 4);
    EXPECT_EQ(db2.floorplan().row(0).num_sites, 60);
    // Pin offsets survive the centre-offset conversion.
    const Pin& p0 = db2.pin(db2.nets()[0].pins()[0]);
    EXPECT_NEAR(p0.offset_x, 2.0, 1e-6);
    EXPECT_NEAR(p0.offset_y, 0.5, 1e-6);
}

TEST_F(BookshelfTest, LegalizedPositionsWritten) {
    Database db = small_design();
    db.cell(db.find_cell("a")).set_pos(5, 1);
    db.cell(db.find_cell("b")).set_pos(20, 2);
    write_bookshelf(db, dir_.string(), "t", /*use_gp_positions=*/false);
    const BookshelfReadResult r = read_bookshelf(path("t.aux"));
    EXPECT_NEAR(r.db.cell(r.db.find_cell("a")).gp_x(), 5.0, 1e-6);
}

TEST_F(BookshelfTest, MissingFileThrows) {
    EXPECT_THROW(read_bookshelf(path("nope.aux")), ParseError);
}

TEST_F(BookshelfTest, MalformedAuxThrows) {
    std::ofstream(path("bad.aux")) << "RowBasedPlacement : foo.nodes\n";
    EXPECT_THROW(read_bookshelf(path("bad.aux")), ParseError);
}

TEST_F(BookshelfTest, UnknownNodeInPlThrows) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    std::ofstream(path("t.pl"), std::ios::app) << "ghost 1 1 : N\n";
    EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
}

TEST_F(BookshelfTest, MisalignedNodeSizeThrows) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    // Append a node whose width is not a site multiple.
    std::ofstream(path("t.nodes"), std::ios::app) << "odd 0.3 1.71\n";
    EXPECT_THROW(read_bookshelf(path("t.aux")), ParseError);
}

TEST_F(BookshelfTest, CommentsAndBlankLinesIgnored) {
    Database db = small_design();
    write_bookshelf(db, dir_.string(), "t", true);
    // Prepend comments to every file.
    for (const char* f : {"t.nodes", "t.pl", "t.scl", "t.nets"}) {
        const std::string p = path(f);
        std::ifstream in(p);
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        in.close();
        std::ofstream out(p);
        out << "# a comment\n\n" << content << "\n# trailing\n";
    }
    EXPECT_NO_THROW(read_bookshelf(path("t.aux")));
}

TEST_F(BookshelfTest, GeneratedBenchmarkRoundTrips) {
    GenProfile p;
    p.name = "tiny";
    p.num_single = 150;
    p.num_double = 15;
    p.density = 0.5;
    p.num_blockages = 0;
    GenResult gen = generate_benchmark(p);
    write_bookshelf(gen.db, dir_.string(), "tiny", true);
    const BookshelfReadResult r = read_bookshelf(path("tiny.aux"));
    EXPECT_EQ(r.db.num_cells(), gen.db.num_cells());
    EXPECT_EQ(r.db.nets().size(), gen.db.nets().size());
    EXPECT_EQ(r.db.pins().size(), gen.db.pins().size());
    EXPECT_EQ(r.db.floorplan().num_rows(),
              gen.db.floorplan().num_rows());
    // Spot-check gp coordinates survive within rounding noise.
    for (const char* name : {"s0", "s7", "d3"}) {
        const Cell& c1 = gen.db.cell(gen.db.find_cell(name));
        const Cell& c2 = r.db.cell(r.db.find_cell(name));
        EXPECT_NEAR(c1.gp_x(), c2.gp_x(), 1e-4) << name;
        EXPECT_NEAR(c1.gp_y(), c2.gp_y(), 1e-4) << name;
        EXPECT_EQ(c1.width(), c2.width());
        EXPECT_EQ(c1.height(), c2.height());
    }
}

// ---- hand-written fixtures -----------------------------------------------

/// A 4-row die, site and row both 1 unit: two movable cells, one fixed
/// pad, one 3-pin net. Keyed by file extension.
using Files = std::map<std::string, std::string>;

Files four_row_design() {
    std::string scl = "UCLA scl 1.0\nNumRows : 4\n";
    for (int y = 0; y < 4; ++y) {
        scl += "CoreRow Horizontal\n  Coordinate : " + std::to_string(y) +
               "\n  Height : 1\n  Sitewidth : 1\n  Sitespacing : 1\n"
               "  SubrowOrigin : 0  NumSites : 40\nEnd\n";
    }
    return {
        {"aux", "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n"},
        {"scl", scl},
        {"nodes",
         "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\n"
         "a 2 1\nb 3 2\npad 2 1 terminal\n"},
        {"pl",
         "UCLA pl 1.0\na 5.5 1.25 : N\nb 10 2 : N\n"
         "pad 30 0 : N /FIXED\n"},
        {"nets",
         "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\n"
         "  a B : 0.5 0\n  b B : 0 0.5\n  pad B : 0 0\n"},
    };
}

/// Replaces the first occurrence of `from` (which must exist).
std::string replaced(std::string s, const std::string& from,
                     const std::string& to) {
    const std::size_t at = s.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? s : s.replace(at, from.size(), to);
}

/// Every field the reader fills, doubles as bit patterns: two loads are
/// the same design exactly when their dumps are equal.
std::string dump(const Database& db) {
    std::ostringstream os;
    os << std::hex;
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    const Floorplan& fp = db.floorplan();
    os << bits(fp.site_w_um()) << ' ' << bits(fp.site_h_um()) << '\n';
    for (const Row& r : fp.rows()) {
        os << "row " << r.y << ' ' << r.x << ' ' << r.num_sites << '\n';
    }
    for (const Cell& c : db.cells()) {
        os << "cell " << c.name() << ' ' << c.width() << ' ' << c.height()
           << ' ' << c.fixed() << ' ' << bits(c.gp_x()) << ' '
           << bits(c.gp_y()) << ' ' << c.placed();
        if (c.placed()) {
            os << ' ' << c.x() << ' ' << c.y();
        }
        for (const PinId p : c.pins()) {
            os << ' ' << p.value();
        }
        os << '\n';
    }
    for (const Net& n : db.nets()) {
        os << "net " << n.name();
        for (const PinId p : n.pins()) {
            os << ' ' << p.value();
        }
        os << '\n';
    }
    for (const Pin& p : db.pins()) {
        os << "pin " << p.cell.value() << ' ' << p.net.value() << ' '
           << bits(p.offset_x) << ' ' << bits(p.offset_y) << '\n';
    }
    return os.str();
}

class BookshelfFixture : public BookshelfTest {
protected:
    /// Writes `files` as t.<ext> and reads t.aux.
    BookshelfReadResult load(const Files& files) {
        for (const auto& [ext, text] : files) {
            std::ofstream(path("t." + ext), std::ios::binary) << text;
        }
        return read_bookshelf(path("t.aux"));
    }
};

TEST_F(BookshelfFixture, PlainFixtureLoads) {
    const BookshelfReadResult r = load(four_row_design());
    EXPECT_EQ(r.db.num_cells(), 3u);
    EXPECT_EQ(r.db.floorplan().num_rows(), 4);
    EXPECT_EQ(r.db.pins().size(), 3u);
    EXPECT_EQ(r.db.cell(r.db.find_cell("pad")).x(), 30);
}

/// One malformed input: `ext` is rewritten by `edit`, and the read must
/// throw a ParseError whose message names `where` ("t.<ext>:<line>:").
struct MalformedCase {
    const char* label;
    const char* ext;
    std::string (*edit)(const std::string&);
    const char* where;
};

// Each case aborted, wrapped or loaded garbage before the reader named
// its line.
const MalformedCase kMalformed[] = {
    {"duplicate node name", "nodes",
     [](const std::string& s) { return s + "a 2 1\n"; }, "t.nodes:7:"},
    {"zero width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a 0 1"); },
     "t.nodes:4:"},
    {"negative width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a -2 1"); },
     "t.nodes:4:"},
    {"nan width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a nan 1"); },
     "t.nodes:4:"},
    {"inf width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a inf 1"); },
     "t.nodes:4:"},
    {"huge width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a 1e12 1"); },
     "t.nodes:4:"},
    {"duplicate net name", "nets",
     [](const std::string& s) {
         return s + "NetDegree : 1 n0\n  a B : 0 0\n";
     },
     "t.nets:8:"},
    {"fixed terminal beyond SiteCoord", "pl",
     [](const std::string& s) {
         return replaced(s, "pad 30 0", "pad 1e15 0");
     },
     "t.pl:4:"},
    {"nan gp", "pl",
     [](const std::string& s) { return replaced(s, "a 5.5", "a nan"); },
     "t.pl:2:"},
    {"inf gp", "pl",
     [](const std::string& s) { return replaced(s, "a 5.5", "a inf"); },
     "t.pl:2:"},
    {"huge gp", "pl",
     [](const std::string& s) { return replaced(s, "a 5.5", "a 1e300"); },
     "t.pl:2:"},
    {"nan pin offset", "nets",
     [](const std::string& s) {
         return replaced(s, "a B : 0.5", "a B : nan");
     },
     "t.nets:5:"},
    {"number with a junk suffix as a width", "nodes",
     [](const std::string& s) { return replaced(s, "a 2 1", "a 2xyz 1"); },
     "t.nodes:4:"},
    {"number with a junk suffix as an offset", "nets",
     [](const std::string& s) {
         return replaced(s, "a B : 0.5", "a B : 0.5junk");
     },
     "t.nets:5:"},
    {"movable node taller than the core", "nodes",
     [](const std::string& s) { return replaced(s, "b 3 2", "b 3 10"); },
     "t.nodes:5:"},
    {"fractional NumSites", "scl",
     [](const std::string& s) {
         return replaced(s, "NumSites : 40", "NumSites : 40.5");
     },
     "t.scl:8:"},
    {"terminal with no position", "pl",
     [](const std::string& s) {
         return replaced(s, "pad 30 0 : N /FIXED\n", "");
     },
     "t.nodes:6:"},
};

TEST_F(BookshelfFixture, MalformedInputNamesFileAndLine) {
    for (const MalformedCase& c : kMalformed) {
        Files files = four_row_design();
        files[c.ext] = c.edit(files[c.ext]);
        try {
            load(files);
            ADD_FAILURE() << c.label << ": loaded";
        } catch (const ParseError& e) {
            EXPECT_NE(std::string(e.what()).find(c.where), std::string::npos)
                << c.label << ": " << e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << c.label << ": not a ParseError: " << e.what();
        }
    }
}

TEST_F(BookshelfFixture, PinErrorsAreReportedInFileOrder) {
    // Pins resolve in blocks of NameIndex::kBatch: an unknown node still
    // wins over a malformed later line, in the first block and past it.
    for (const int pins_before : {0, 200}) {
        Files files = four_row_design();
        std::string nets = "UCLA nets 1.0\nNetDegree : 1 n0\n";
        for (int i = 0; i < pins_before; ++i) {
            nets += "  a B : 0 0\n";
        }
        files["nets"] = nets + "  ghost B : 0 0\n  a B : nan 0\n";
        const std::string where = "t.nets:" + std::to_string(pins_before + 3) +
                                  ": nets references unknown node ghost";
        try {
            load(files);
            ADD_FAILURE() << pins_before << ": loaded";
        } catch (const ParseError& e) {
            EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
                << e.what();
        }
    }
}

TEST_F(BookshelfFixture, IntegralNumSitesInAnyNumberFormLoads) {
    for (const char* n : {"40", "40.0", "4e1", "+40"}) {
        Files files = four_row_design();
        files["scl"] = replaced(files["scl"], "NumSites : 40",
                                std::string("NumSites : ") + n);
        EXPECT_EQ(load(files).db.floorplan().row(0).num_sites, 40) << n;
    }
}

TEST_F(BookshelfFixture, FixedTerminalOutsideTheDieStaysLegal) {
    // ISPD pads sit outside the core: only SiteCoord overflow is refused.
    Files files = four_row_design();
    files["pl"] = replaced(files["pl"], "pad 30 0", "pad -500 -7");
    const BookshelfReadResult r = load(files);
    const Cell& pad = r.db.cell(r.db.find_cell("pad"));
    EXPECT_EQ(pad.x(), -500);
    EXPECT_EQ(pad.y(), -7);
}

TEST_F(BookshelfFixture, UnparsableCountHeadersAreIgnored) {
    Files files = four_row_design();
    files["nodes"] = replaced(files["nodes"], "NumNodes : 3", "NumNodes : x");
    files["nets"] = replaced(files["nets"], "NumPins : 3", "NumPins : 1e300");
    const std::string plain = dump(load(four_row_design()).db);
    EXPECT_EQ(dump(load(files).db), plain);
}

TEST_F(BookshelfFixture, LyingCountHeadersReserveAtMostOneEntryPerLine) {
    // Every node, net and pin has a line of its own, so a hint is cut to
    // its file's line count.
    Files files = four_row_design();
    files["nodes"] =
        replaced(files["nodes"], "NumNodes : 3", "NumNodes : 1e9");
    files["nets"] = replaced(files["nets"], "NumNets : 1", "NumNets : 1e9");
    files["nets"] = replaced(files["nets"], "NumPins : 3", "NumPins : 1e9");
    const BookshelfReadResult r = load(files);
    EXPECT_EQ(dump(r.db), dump(load(four_row_design()).db));
    EXPECT_LE(r.db.cells().capacity(), 7u);  // .nodes lines
    EXPECT_LE(r.db.nets().capacity(), 8u);   // .nets lines
    EXPECT_LE(r.db.pins().capacity(), 8u);
}

TEST_F(BookshelfFixture, HardNumbersReadBitEqualToStrtod) {
    const std::vector<std::string> tokens = {
        "0.10000000000000001",  // 17 significant digits
        "123456.78901234567",
        "3.1415926535897931",
        // Exactly halfway between two doubles: ties to even.
        "0.500000000000000055511151231257827021181583404541015625",
        "1.00000000000000011102230246251565404236316680908203125",
        // One digit past halfway: rounds up.
        "0.5000000000000000555111512312578270211815834045410156251",
        "1E+2",
        "+0.5",
        "-0",
        "2.2250738585072014e-308",
    };
    const std::string max_token = "1.7976931348623157e308";
    Files files = four_row_design();
    std::string nodes = "UCLA nodes 1.0\n";
    std::string pl = "UCLA pl 1.0\n";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        nodes += "c" + std::to_string(i) + " 1 1\n";
        pl += "c" + std::to_string(i) + " " + tokens[i] + " " + tokens[i] +
              " : N\n";
    }
    files["nodes"] = nodes;
    files["pl"] = pl;
    files["nets"] = "UCLA nets 1.0\nNetDegree : 1 n0\n  c0 B : " +
                    max_token + " -0\n";
    const BookshelfReadResult r = load(files);
    // Site width, row height and y0 are 1, 1 and 0.
    const auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) ==
               std::bit_cast<std::uint64_t>(b);
    };
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const double v = std::strtod(tokens[i].c_str(), nullptr);
        const Cell& c = r.db.cell(CellId{static_cast<int>(i)});
        EXPECT_TRUE(same_bits(c.gp_x(), v / 1.0)) << tokens[i];
        EXPECT_TRUE(same_bits(c.gp_y(), (v - 0.0) / 1.0)) << tokens[i];
    }
    const double max = std::strtod(max_token.c_str(), nullptr);
    const Pin& p = r.db.pins().at(0);
    EXPECT_TRUE(same_bits(p.offset_x, 1 / 2.0 + max / 1.0));
    EXPECT_TRUE(same_bits(p.offset_y, 1 / 2.0 + -0.0 / 1.0));
}

/// Applies `f` to every line of every file, newline excluded.
Files each_line(const Files& files,
                const std::function<std::string(const std::string&)>& f) {
    Files out;
    for (const auto& [ext, text] : files) {
        std::istringstream in(text);
        std::string line;
        while (std::getline(in, line)) {
            out[ext] += f(line) + "\n";
        }
    }
    return out;
}

TEST_F(BookshelfFixture, LineEndingsTabsCommentsAndFinalNewlineDoNotMatter) {
    const Files plain = four_row_design();
    const std::string expected = dump(load(plain).db);
    std::map<std::string, Files> variants;
    variants["crlf"] =
        each_line(plain, [](const std::string& l) { return l + "\r"; });
    variants["tabs"] = each_line(plain, [](std::string l) {
        std::replace(l.begin(), l.end(), ' ', '\t');
        return l;
    });
    variants["comments"] = each_line(
        plain, [](const std::string& l) { return l + " # note: 1 2 3"; });
    variants["no final newline"] = plain;
    for (auto& [ext, text] : variants["no final newline"]) {
        text.pop_back();
    }
    for (const auto& [label, files] : variants) {
        EXPECT_EQ(dump(load(files).db), expected) << label;
    }
}

}  // namespace
}  // namespace mrlg::test
