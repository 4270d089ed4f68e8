/// Mutation sweep over the Bookshelf and LEF/DEF readers. Every file of
/// every checked-in repro under tests/repros/ (plus one small generated
/// design with nets), and the LEF/DEF fixture pair tests/fixtures/top.{lef,
/// def}, is mutated in fixed, deterministic ways: truncated at five
/// offsets, each number replaced by nan / inf / -1 / 1e300 / 0x10, and the
/// first node and net (DEF: COMPONENTS and NETS entry) duplicated. Each
/// mutant must either load, and then survive the set-up the command-line
/// tools run next (freeze_fixed_cells + SegmentGrid::build), or throw
/// ParseError; a LEF/DEF ParseError must start with the LEF's or the
/// DEF's path and ':'. Any other exception fails the test; a crash fails
/// the run. MRLG_REPRO_DIR and MRLG_FIXTURE_DIR are injected by the build
/// (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "db/segment.hpp"
#include "db/write_cap.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/lefdef.hpp"

namespace mrlg {
namespace {

namespace fs = std::filesystem;

constexpr const char* kExtensions[] = {".aux", ".nodes", ".nets", ".pl",
                                       ".scl"};
constexpr const char* kLefDefExtensions[] = {".lef", ".def"};
constexpr const char* kReplacements[] = {"nan", "inf", "-1", "1e300",
                                         "0x10"};

std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// [begin, end) of every whitespace-separated token of `text`.
std::vector<std::pair<std::size_t, std::size_t>> tokens(
    const std::string& text) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() && is_space(text[i])) ++i;
        const std::size_t b = i;
        while (i < text.size() && !is_space(text[i])) ++i;
        if (i > b) {
            out.emplace_back(b, i);
        }
    }
    return out;
}

bool is_number(const std::string& tok) {
    char* end = nullptr;
    std::strtod(tok.c_str(), &end);
    return !tok.empty() && end == tok.c_str() + tok.size();
}

/// Copies `text` with a duplicate of its first line whose first token
/// satisfies `pick` and that follows a line whose first token is
/// `section` (anywhere, when `section` is empty); unchanged when no line
/// does.
template <typename Pick>
std::string duplicate_first_line(const std::string& text,
                                 const std::string& section, Pick pick) {
    std::istringstream in(text);
    std::string out;
    std::string line;
    bool in_section = section.empty();
    bool done = false;
    while (std::getline(in, line)) {
        out += line + "\n";
        std::istringstream words(line);
        std::string first;
        if (!(words >> first)) {
            continue;
        }
        if (!done && in_section && pick(first)) {
            out += line + "\n";
            done = true;
        }
        in_section = in_section || first == section;
    }
    return out;
}

struct Mutant {
    std::string label;
    std::string text;
};

std::vector<Mutant> mutants_of(const std::string& ext,
                               const std::string& text) {
    std::vector<Mutant> out;
    const auto toks = tokens(text);
    const std::size_t n = text.size();
    // Truncations; the last one cuts the middle token after its first
    // character.
    std::vector<std::size_t> cuts = {0, n / 4, n / 2, 3 * n / 4};
    if (!toks.empty()) {
        cuts.push_back(toks[toks.size() / 2].first + 1);
    }
    for (const std::size_t at : cuts) {
        out.push_back({"truncate@" + std::to_string(at), text.substr(0, at)});
    }
    int k = 0;
    for (const auto& [b, e] : toks) {
        if (!is_number(text.substr(b, e - b))) {
            continue;
        }
        for (const char* r : kReplacements) {
            out.push_back({"number#" + std::to_string(k) + "=" + r,
                           text.substr(0, b) + r + text.substr(e)});
        }
        ++k;
    }
    if (ext == ".nodes") {
        out.push_back({"duplicate first node",
                       duplicate_first_line(text, "", [](const std::string& w) {
                           return w != "UCLA" && w != "NumNodes" &&
                                  w != "NumTerminals" && w[0] != '#';
                       })});
    }
    if (ext == ".nets") {
        out.push_back({"duplicate first net",
                       duplicate_first_line(text, "", [](const std::string& w) {
                           return w == "NetDegree";
                       })});
    }
    if (ext == ".def") {
        const auto entry = [](const std::string& w) { return w == "-"; };
        out.push_back({"duplicate first component",
                       duplicate_first_line(text, "COMPONENTS", entry)});
        out.push_back({"duplicate first net",
                       duplicate_first_line(text, "NETS", entry)});
    }
    return out;
}

class BookshelfMutations : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::temp_directory_path() /
               ("mrlg_bsmut_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    /// Sweeps every mutant of every file `<stem><ext>` in `src`, ext one
    /// of `exts`: the design is copied to a fresh directory with that one
    /// file mutated, and `load(dir)` reads it from there. With `located`,
    /// a ParseError must start with a design file's path and ':'. Returns
    /// how many mutants threw ParseError and how many loaded.
    template <std::size_t N, typename Load>
    std::pair<int, int> sweep(const fs::path& src, const std::string& stem,
                              const char* const (&exts)[N], bool located,
                              Load load) {
        int rejected = 0;
        int loaded = 0;
        const fs::path dir = dir_ / "m";
        for (const char* ext : exts) {
            const fs::path target = src / (stem + ext);
            if (!fs::exists(target)) {
                continue;
            }
            for (const Mutant& m : mutants_of(ext, slurp(target))) {
                fs::remove_all(dir);
                fs::create_directories(dir);
                for (const char* e : exts) {
                    if (fs::exists(src / (stem + e))) {
                        fs::copy_file(src / (stem + e), dir / (stem + e));
                    }
                }
                std::ofstream(dir / (stem + ext), std::ios::binary) << m.text;
                const std::string what = stem + ext + " " + m.label;
                try {
                    GridWriteScope grid_write;
                    Database db = load(dir);
                    db.freeze_fixed_cells();
                    const SegmentGrid grid = SegmentGrid::build(db);
                    static_cast<void>(grid);
                    ++loaded;
                } catch (const ParseError& e) {
                    const std::string msg = e.what();
                    const bool names_file = std::any_of(
                        std::begin(exts), std::end(exts), [&](const char* x) {
                            return msg.starts_with(
                                (dir / (stem + x)).string() + ":");
                        });
                    EXPECT_TRUE(names_file || !located) << what << ": " << msg;
                    ++rejected;
                } catch (const std::exception& e) {
                    ADD_FAILURE() << what << ": " << e.what();
                }
            }
        }
        return {rejected, loaded};
    }

    /// The Bookshelf sweep of the design `aux` names.
    std::pair<int, int> sweep_bookshelf(const fs::path& aux) {
        const std::string stem = aux.stem().string();
        return sweep(aux.parent_path(), stem, kExtensions, false,
                     [&](const fs::path& dir) {
                         return read_bookshelf((dir / (stem + ".aux")).string())
                             .db;
                     });
    }

    fs::path dir_;
};

std::vector<fs::path> repro_aux_files() {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(MRLG_REPRO_DIR)) {
        if (entry.path().extension() == ".aux") {
            files.push_back(entry.path());
        }
    }
    std::sort(files.begin(), files.end());
    return files;
}

TEST_F(BookshelfMutations, CheckedInReprosLoadOrThrowParseError) {
    const auto files = repro_aux_files();
    ASSERT_FALSE(files.empty());
    for (const fs::path& aux : files) {
        const auto [rejected, loaded] = sweep_bookshelf(aux);
        // Every design has numbers to break and files to truncate, and
        // some mutants (a -1 offset, a cut after the last line) still load.
        EXPECT_GT(rejected, 0) << aux;
        EXPECT_GT(loaded, 0) << aux;
    }
}

TEST_F(BookshelfMutations, GeneratedDesignWithNetsLoadsOrThrowsParseError) {
    // The repros carry no nets; this design exercises the .nets mutants.
    GenProfile p;
    p.name = "gen";
    p.num_single = 12;
    p.num_double = 3;
    p.density = 0.4;
    p.nets_per_cell = 0.5;
    const GenResult gen = generate_benchmark(p);
    ASSERT_FALSE(gen.db.nets().empty());
    write_bookshelf(gen.db, (dir_ / "gen").string(), "gen",
                    /*use_gp_positions=*/true);
    const auto [rejected, loaded] = sweep_bookshelf(dir_ / "gen" / "gen.aux");
    EXPECT_GT(rejected, 0);
    EXPECT_GT(loaded, 0);
}

TEST_F(BookshelfMutations, LefDefFixtureLoadsOrThrowsLocatedParseError) {
    const auto [rejected, loaded] = sweep(
        MRLG_FIXTURE_DIR, "top", kLefDefExtensions, true,
        [](const fs::path& dir) {
            const LefLibrary lef = read_lef((dir / "top.lef").string());
            return read_def((dir / "top.def").string(), lef).db;
        });
    EXPECT_GT(rejected, 0);
    EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace mrlg
