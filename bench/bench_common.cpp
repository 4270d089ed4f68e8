#include "bench_common.hpp"

#include <cstdlib>
#include <ctime>
#include <iostream>

#include "eval/legality.hpp"
#include "eval/metrics.hpp"

namespace mrlg::bench {

namespace {

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

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
                            const LegalizerOptions& opts,
                            const std::string& where) {
    reset_placement(db, grid);
    RunMetrics m;
    m.gp_hpwl_m = hpwl_m(db, PositionSource::kGlobalPlacement);

    const double cpu_start_s = process_cpu_s();
    m.stats = legalize_placement(db, grid, opts);
    m.cpu_s = process_cpu_s() - cpu_start_s;
    require_legal(db, grid, opts.mll.check_rail, where);
    m.disp_avg_sites = displacement_stats(db).avg_sites;
    m.dhpwl_pct = hpwl_delta(db) * 100.0;
    return m;
}

void require_legal(const Database& db, const SegmentGrid& grid,
                   bool check_rail, const std::string& where) {
    LegalityOptions lopts;
    lopts.check_rail_alignment = check_rail;
    const LegalityReport rep = check_legality(db, grid, lopts);
    if (!rep.legal) {
        std::cerr << "FATAL: " << where << " ("
                  << (check_rail ? "aligned" : "relaxed")
                  << " rails): " << rep.num_unplaced << " cell(s) unplaced, "
                  << rep.num_overlaps << " overlap(s), "
                  << rep.num_out_of_rows << " out of rows, "
                  << rep.num_rail_violations << " rail violation(s)"
                  << (rep.messages.empty() ? "" : "; " + rep.messages.front())
                  << "\n";
        std::exit(1);
    }
}

}  // namespace mrlg::bench
