#include "qa/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/audit.hpp"
#include "eval/legality.hpp"
#include "obs/trace.hpp"
#include "io/bookshelf.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "legalize/ripup.hpp"
#include "qa/shrink.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "db/write_cap.hpp"

namespace mrlg::qa {

namespace {

/// Window half-extents for the local-solver battery. Deliberately smaller
/// than MllOptions defaults so the naive exponential enumeration and the
/// MIP stay affordable and actually get consulted.
constexpr SiteCoord kFuzzRx = 10;
constexpr SiteCoord kFuzzRy = 3;

std::string legality_battery(Database& db, const SegmentGrid& grid) {
    LegalityOptions opts;
    opts.require_all_placed = false;
    return diff_legality(db, grid, opts);
}

std::string local_battery(Database& db, const SegmentGrid& grid,
                          const LocalDiffOptions& lopts) {
    MllOptions wopts;
    wopts.rx = kFuzzRx;
    wopts.ry = kFuzzRy;
    for (const CellId id : db.movable_cells()) {
        const Cell& c = db.cell(id);
        if (c.placed()) {
            continue;
        }
        const Rect window = mll_window(c, c.gp_x(), c.gp_y(), wopts);
        const std::string diff = diff_local_solvers(db, grid, id, c.gp_x(),
                                                    c.gp_y(), window, lopts);
        if (!diff.empty()) {
            return "target " + c.name() + ": " + diff;
        }
    }
    return {};
}

std::string mll_battery(Database& db, SegmentGrid& grid, int num_threads) {
    GridWriteScope grid_write;
    int idx = 0;
    for (const CellId id : db.movable_cells()) {
        const Cell& c = db.cell(id);
        if (c.placed()) {
            continue;
        }
        MllOptions mopts;
        mopts.num_threads = num_threads;
        mopts.exact_evaluation = (idx++ % 2) == 1;  // alternate both paths
        const std::string diff = diff_mll_roundtrip(db, grid, id, c.gp_x(),
                                                    c.gp_y(), mopts);
        if (!diff.empty()) {
            return "target " + c.name() + " (" +
                   (mopts.exact_evaluation ? "exact" : "approx") +
                   "): " + diff;
        }
    }
    return {};
}

std::string ripup_battery(Database& db, SegmentGrid& grid, int num_threads) {
    GridWriteScope grid_write;
    int idx = 0;
    for (const CellId id : db.movable_cells()) {
        const Cell& c = db.cell(id);
        if (c.placed()) {
            continue;
        }
        RipupOptions ropts;
        ropts.mll.num_threads = num_threads;
        // Tight eviction caps force the rollback path often.
        ropts.max_evictions = 1 + static_cast<std::size_t>(idx++ % 4);
        const std::string diff = diff_ripup_rollback(db, grid, id, c.gp_x(),
                                                     c.gp_y(), ropts);
        if (!diff.empty()) {
            return "target " + c.name() + ": " + diff;
        }
    }
    return {};
}

std::string design_battery(Database& db, SegmentGrid& grid,
                           int num_threads) {
    LegalizerOptions lopts;
    lopts.num_threads = num_threads;
    const std::string serial = diff_legalizer(db, grid, lopts);
    if (!serial.empty()) {
        return "legalizer vs serial reference: " + serial;
    }
    const LegalizerStats stats = legalize_placement(db, grid, lopts);
    const AuditReport audit =
        audit_segment_grid(db, grid, AuditLevel::kCheap, false);
    if (!audit.ok()) {
        return "post-legalize grid audit: " + audit.to_string();
    }
    LegalityOptions checks;
    checks.require_all_placed = stats.success;
    const std::string diff = diff_legality(db, grid, checks);
    if (!diff.empty()) {
        return "post-legalize legality: " + diff;
    }
    return {};
}

/// Per-iteration RNG: splitmix-style stream derived from (seed, iter) so
/// a failing iteration replays without running its predecessors.
Rng iteration_rng(std::uint64_t seed, int iter) {
    return Rng(seed + 0x9e3779b97f4a7c15ULL *
                          (static_cast<std::uint64_t>(iter) + 1));
}

Database make_case(FuzzScenario scenario, std::uint64_t seed, int iter) {
    Rng rng = iteration_rng(seed, iter);
    switch (scenario) {
        case FuzzScenario::kLegality:
            return gen_overlapping_case(rng);
        case FuzzScenario::kLocal:
            return gen_packed_case(rng, 1 + iter % 3);
        case FuzzScenario::kMllRoundtrip:
            return gen_packed_case(rng, 2 + iter % 3);
        case FuzzScenario::kRipup:
            return gen_saturated_case(rng, 1 + iter % 2);
        case FuzzScenario::kWholeDesign:
            return gen_whole_design_case(rng);
    }
    MRLG_ASSERT(false, "unknown scenario");
    return Database{};
}

std::string sidecar_path_for(const std::string& aux_path) {
    std::string base = aux_path;
    const std::string ext = ".aux";
    if (base.size() > ext.size() &&
        base.compare(base.size() - ext.size(), ext.size(), ext) == 0) {
        base.resize(base.size() - ext.size());
    }
    return base + ".scenario";
}

}  // namespace

std::string check_case(Database& db, FuzzScenario scenario,
                       const LocalDiffOptions& lopts, int num_threads) {
    SegmentGrid grid = materialize_case(db);
    switch (scenario) {
        case FuzzScenario::kLegality:
            return legality_battery(db, grid);
        case FuzzScenario::kLocal:
            return local_battery(db, grid, lopts);
        case FuzzScenario::kMllRoundtrip:
            return mll_battery(db, grid, num_threads);
        case FuzzScenario::kRipup:
            return ripup_battery(db, grid, num_threads);
        case FuzzScenario::kWholeDesign:
            return design_battery(db, grid, num_threads);
    }
    return "unknown scenario";
}

std::string dump_repro(const Database& db, FuzzScenario scenario,
                       const std::string& dir, const std::string& name) {
    GridWriteScope grid_write;
    // Blockages do not survive a Bookshelf round-trip as floorplan rects;
    // encode them as fixed terminal nodes (freeze_fixed_cells turns them
    // back into blockages on replay).
    Database dump = db;
    int bi = 0;
    for (const Rect& b : db.floorplan().blockages()) {
        const CellId id = dump.add_cell(
            Cell("mrlgblk" + std::to_string(bi++), b.w, b.h,
                 RailPhase::kEven, /*fixed=*/true));
        dump.cell(id).set_pos(b.x, b.y);
    }
    std::filesystem::create_directories(dir);
    write_bookshelf(dump, dir, name, /*use_gp_positions=*/true);

    // Rail phases have no Bookshelf representation either; the sidecar
    // names the scenario plus every odd-phase cell.
    std::ofstream side(dir + "/" + name + ".scenario");
    side << "scenario " << to_string(scenario) << "\n";
    for (const Cell& c : dump.cells()) {
        if (c.rail_phase() == RailPhase::kOdd) {
            side << "odd " << c.name() << "\n";
        }
    }
    return dir + "/" + name + ".aux";
}

std::string replay_repro(const std::string& aux_path,
                         const LocalDiffOptions& lopts) {
    GridWriteScope grid_write;
    BookshelfReadResult rr = read_bookshelf(aux_path);

    FuzzScenario scenario = FuzzScenario::kLegality;
    std::vector<std::string> odd_names;
    {
        std::ifstream side(sidecar_path_for(aux_path));
        if (!side) {
            return "missing sidecar " + sidecar_path_for(aux_path);
        }
        std::string key;
        std::string value;
        while (side >> key >> value) {
            if (key == "scenario") {
                if (!scenario_from_string(value, scenario)) {
                    return "sidecar names unknown scenario '" + value + "'";
                }
            } else if (key == "odd") {
                odd_names.push_back(value);
            }
        }
    }

    // Cell rail phases are constructor-only; rebuild the database with the
    // sidecar's phase assignment.
    Database db{rr.db.floorplan()};
    for (const Cell& src : rr.db.cells()) {
        const bool odd = std::find(odd_names.begin(), odd_names.end(),
                                   src.name()) != odd_names.end();
        Cell copy(src.name(), src.width(), src.height(),
                  odd ? RailPhase::kOdd : RailPhase::kEven, src.fixed());
        copy.set_region(src.region());
        copy.set_gp(src.gp_x(), src.gp_y());
        if (src.placed()) {
            copy.set_pos(src.x(), src.y());
        }
        db.add_cell(std::move(copy));
    }
    db.freeze_fixed_cells();
    return check_case(db, scenario, lopts);
}

FuzzReport run_fuzz(const FuzzOptions& opts) {
    MRLG_OBS_PHASE("fuzz");
    std::vector<FuzzScenario> scens = opts.scenarios;
    if (scens.empty()) {
        scens = {FuzzScenario::kLegality, FuzzScenario::kLocal,
                 FuzzScenario::kMllRoundtrip, FuzzScenario::kRipup,
                 FuzzScenario::kWholeDesign};
    }
    LocalDiffOptions lopts;
    lopts.run_ilp = opts.exercise_ilp;

    FuzzReport report;
    const int total = opts.iters * static_cast<int>(scens.size());
    for (int iter = 0; iter < total; ++iter) {
        if (static_cast<int>(report.failures.size()) >= opts.max_failures) {
            break;
        }
        const FuzzScenario scen =
            scens[static_cast<std::size_t>(iter) % scens.size()];
        Database pristine = make_case(scen, opts.seed, iter);
        Database db = pristine;
        const std::string detail =
            check_case(db, scen, lopts, opts.num_threads);
        ++report.iterations_run;
        MRLG_OBS_COUNT("fuzz.iterations", 1);
        if (detail.empty()) {
            continue;
        }

        FuzzFailure f;
        f.scenario = scen;
        f.seed = opts.seed;
        f.iteration = iter;
        f.detail = detail;
        f.cells_before = pristine.num_cells();
        Database minimal = std::move(pristine);
        if (opts.shrink) {
            const ShrinkResult shrunk = shrink_case(
                minimal, [&](Database& d) {
                    return check_case(d, scen, lopts, opts.num_threads);
                });
            minimal = shrunk.db;
            f.detail = shrunk.failure;
            f.cells_after = shrunk.cells_after;
        } else {
            f.cells_after = f.cells_before;
        }
        f.uses_fences = case_uses_fences(minimal);
        if (!opts.repro_dir.empty()) {
            std::ostringstream name;
            name << "repro_" << to_string(scen) << "_s" << opts.seed << "_i"
                 << iter;
            f.repro_path =
                dump_repro(minimal, scen, opts.repro_dir, name.str());
        }
        MRLG_OBS_COUNT("fuzz.failures", 1);
        report.failures.push_back(std::move(f));
    }
    return report;
}

std::string FuzzReport::summary() const {
    std::ostringstream os;
    os << iterations_run << " iteration(s), " << failures.size()
       << " failure(s)\n";
    for (const FuzzFailure& f : failures) {
        os << "  [" << to_string(f.scenario) << "] iter " << f.iteration
           << " seed " << f.seed << ": " << f.detail << "\n"
           << "    shrunk " << f.cells_before << " -> " << f.cells_after
           << " cells\n";
        if (!f.repro_path.empty()) {
            os << "    repro: " << f.repro_path
               << (f.uses_fences ? " (uses fences; Bookshelf replay is"
                                   " approximate — prefer seed+iter)"
                                 : "")
               << "\n";
        }
    }
    return os.str();
}

}  // namespace mrlg::qa
