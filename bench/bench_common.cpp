#include "bench_common.hpp"

#include <cstdlib>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace mrlg::bench {

Args::Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        argv_.emplace_back(argv[i]);
    }
}

double Args::get_double(const std::string& key, double def) const {
    for (std::size_t i = 0; i + 1 < argv_.size(); ++i) {
        if (argv_[i] == key) {
            return std::atof(argv_[i + 1].c_str());
        }
    }
    return def;
}

int Args::get_int(const std::string& key, int def) const {
    for (std::size_t i = 0; i + 1 < argv_.size(); ++i) {
        if (argv_[i] == key) {
            return std::atoi(argv_[i + 1].c_str());
        }
    }
    return def;
}

bool Args::has_flag(const std::string& key) const {
    for (const auto& a : argv_) {
        if (a == key) {
            return true;
        }
    }
    return false;
}

std::string Args::get_string(const std::string& key,
                             const std::string& def) const {
    for (std::size_t i = 0; i + 1 < argv_.size(); ++i) {
        if (argv_[i] == key) {
            return argv_[i + 1];
        }
    }
    return def;
}

void reset_placement(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
}

RunMetrics run_legalization(Database& db, SegmentGrid& grid,
                            const LegalizerOptions& opts) {
    RunMetrics m;
    m.gp_hpwl_m = hpwl_m(db, PositionSource::kGlobalPlacement);

    const LegalizerStats stats = legalize_placement(db, grid, opts);
    m.success = stats.success;
    m.runtime_s = stats.runtime_s;
    m.direct = stats.direct_placements;
    m.mll = stats.mll_successes;
    m.mll_failures = stats.mll_failures;
    m.points_evaluated = stats.mll_points_evaluated;
    m.waves = stats.waves;
    m.conflict_requeues = stats.conflict_requeues;

    LegalityOptions lopts;
    lopts.check_rail_alignment = opts.mll.check_rail;
    lopts.num_threads = opts.num_threads;
    lopts.require_all_placed = true;
    const LegalityReport rep = check_legality(db, grid, lopts);
    if (!rep.legal) {
        MRLG_LOG(kError) << "bench produced an illegal placement ("
                         << rep.messages.size() << "+ violations)";
        m.success = false;
    }

    const DisplacementStats d = displacement_stats(db);
    m.disp_avg_sites = d.avg_sites;
    m.disp_max_sites = d.max_sites;
    m.dhpwl_pct = hpwl_delta(db) * 100.0;
    return m;
}

}  // namespace mrlg::bench
