/// Mutation sweep over the Bookshelf reader. Every file of every
/// checked-in repro under tests/repros/ (plus one small generated design
/// with nets) is mutated in fixed, deterministic ways: truncated at five
/// offsets, each number replaced by nan / inf / -1 / 1e300 / 0x10, and the
/// first node and net lines duplicated. Each mutant must either load, and
/// then survive the set-up the command-line tools run next
/// (freeze_fixed_cells + SegmentGrid::build), or throw ParseError. Any
/// other exception fails the test; a crash fails the run. MRLG_REPRO_DIR
/// is injected by the build (tests/CMakeLists.txt).

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

namespace mrlg {
namespace {

namespace fs = std::filesystem;

constexpr const char* kExtensions[] = {".aux", ".nodes", ".nets", ".pl",
                                       ".scl"};
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
/// satisfies `pick`; unchanged when no line does.
template <typename Pick>
std::string duplicate_first_line(const std::string& text, Pick pick) {
    std::istringstream in(text);
    std::string out;
    std::string line;
    bool done = false;
    while (std::getline(in, line)) {
        out += line + "\n";
        std::istringstream words(line);
        std::string first;
        if (!done && (words >> first) && pick(first)) {
            out += line + "\n";
            done = true;
        }
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
                       duplicate_first_line(text, [](const std::string& w) {
                           return w != "UCLA" && w != "NumNodes" &&
                                  w != "NumTerminals" && w[0] != '#';
                       })});
    }
    if (ext == ".nets") {
        out.push_back({"duplicate first net",
                       duplicate_first_line(text, [](const std::string& w) {
                           return w == "NetDegree";
                       })});
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

    /// Sweeps every mutant of every file of `aux`'s design. Returns how
    /// many mutants threw ParseError and how many loaded.
    std::pair<int, int> sweep(const fs::path& aux) {
        const fs::path src = aux.parent_path();
        const std::string stem = aux.stem().string();
        int rejected = 0;
        int loaded = 0;
        for (const char* ext : kExtensions) {
            const fs::path target = src / (stem + ext);
            if (!fs::exists(target)) {
                continue;
            }
            for (const Mutant& m : mutants_of(ext, slurp(target))) {
                // Fresh copy of the design with one file mutated.
                fs::remove_all(dir_ / "m");
                fs::create_directories(dir_ / "m");
                for (const char* e : kExtensions) {
                    if (fs::exists(src / (stem + e))) {
                        fs::copy_file(src / (stem + e),
                                      dir_ / "m" / (stem + e));
                    }
                }
                std::ofstream(dir_ / "m" / (stem + ext), std::ios::binary)
                    << m.text;
                const std::string what = stem + ext + " " + m.label;
                try {
                    GridWriteScope grid_write;
                    BookshelfReadResult r = read_bookshelf(
                        (dir_ / "m" / (stem + ".aux")).string());
                    r.db.freeze_fixed_cells();
                    const SegmentGrid grid = SegmentGrid::build(r.db);
                    static_cast<void>(grid);
                    ++loaded;
                } catch (const ParseError&) {
                    ++rejected;
                } catch (const std::exception& e) {
                    ADD_FAILURE() << what << ": " << e.what();
                }
            }
        }
        return {rejected, loaded};
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
        const auto [rejected, loaded] = sweep(aux);
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
    const auto [rejected, loaded] = sweep(dir_ / "gen" / "gen.aux");
    EXPECT_GT(rejected, 0);
    EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace mrlg
