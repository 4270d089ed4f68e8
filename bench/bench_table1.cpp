/// bench_table1 — regenerates the paper's Table 1: for each of the 20
/// ISPD2015-profile benchmarks, legalize the synthetic global placement
/// with (a) the MLL algorithm ("Ours") and (b) the exact local solver
/// ("ILP" — optimal per local subproblem, the paper's lpsolve stand-in),
/// under both the power-line-aligned and relaxed constraints.
///
/// Flags:
///   --scale F     cell-count scale vs the paper (default 0.02)
///   --seed N      generator seed offset (default 0)
///   --aligned-only / --relaxed-only
///   --skip-ilp    only run MLL (exact solver is ~1-2 orders slower)
///   --only NAME   run only the benchmark NAME (e.g. superblue12)
///   --true-ilp    the "ILP" column solves the paper's MIP for each MLL
///                 call instead of evaluating insertion points exactly
///                 (orders of magnitude slower; EXPERIMENTS.md §3)
///   --csv         emit CSV instead of the aligned table

#include <iostream>

#include "bench_common.hpp"
#include "io/profiles.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

struct RowResult {
    std::string name;
    std::size_t s_cells = 0;
    std::size_t d_cells = 0;
    double density = 0;
    double gp_hpwl_m = 0;
    RunMetrics ilp;
    RunMetrics ours;
};

void print_block(const std::string& title,
                 const std::vector<RowResult>& rows, bool have_ilp,
                 bool csv) {
    std::cout << "\n=== Table 1 — " << title << " ===\n";
    Table t({"Benchmark", "#S.Cell", "#D.Cell", "Density", "GP HPWL(m)",
             "Disp ILP", "Disp Ours", "dHPWL% ILP", "dHPWL% Ours",
             "RT ILP(s)", "RT Ours(s)"});
    double sum_disp_ilp = 0;
    double sum_disp_ours = 0;
    double sum_dh_ilp = 0;
    double sum_dh_ours = 0;
    double sum_rt_ilp = 0;
    double sum_rt_ours = 0;
    for (const RowResult& r : rows) {
        t.add_row({r.name, std::to_string(r.s_cells),
                   std::to_string(r.d_cells), format_fixed(r.density, 2),
                   format_fixed(r.gp_hpwl_m, 3),
                   have_ilp ? format_fixed(r.ilp.disp_avg_sites, 2) : "-",
                   format_fixed(r.ours.disp_avg_sites, 2),
                   have_ilp ? format_fixed(r.ilp.dhpwl_pct, 2) : "-",
                   format_fixed(r.ours.dhpwl_pct, 2),
                   have_ilp ? format_fixed(r.ilp.runtime_s, 2) : "-",
                   format_fixed(r.ours.runtime_s, 2)});
        sum_disp_ilp += r.ilp.disp_avg_sites;
        sum_disp_ours += r.ours.disp_avg_sites;
        sum_dh_ilp += r.ilp.dhpwl_pct;
        sum_dh_ours += r.ours.dhpwl_pct;
        sum_rt_ilp += r.ilp.runtime_s;
        sum_rt_ours += r.ours.runtime_s;
    }
    const double n = static_cast<double>(rows.size());
    t.add_row({"Avg.", "", "", "", "",
               have_ilp ? format_fixed(sum_disp_ilp / n, 2) : "-",
               format_fixed(sum_disp_ours / n, 2),
               have_ilp ? format_fixed(sum_dh_ilp / n, 2) : "-",
               format_fixed(sum_dh_ours / n, 2),
               have_ilp ? format_fixed(sum_rt_ilp / n, 2) : "-",
               format_fixed(sum_rt_ours / n, 2)});
    if (have_ilp && sum_disp_ours > 0 && sum_rt_ours > 0) {
        t.add_row({"N.Avg", "", "", "", "",
                   format_fixed(sum_disp_ilp / sum_disp_ours, 2), "1.00",
                   format_fixed(sum_dh_ilp / std::max(sum_dh_ours, 1e-9), 2),
                   "1.00", format_fixed(sum_rt_ilp / sum_rt_ours, 1),
                   "1.00"});
    }
    if (csv) {
        t.print_csv(std::cout);
    } else {
        t.print(std::cout);
    }
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    set_log_level(LogLevel::kWarn);
    const double scale = args.get_double("--scale", 0.02);
    const bool skip_ilp = args.has_flag("--skip-ilp");
    const bool csv = args.has_flag("--csv");
    const int seed_offset = args.get_int("--seed", 0);

    std::vector<bool> modes;  // true = power-line aligned
    if (!args.has_flag("--relaxed-only")) {
        modes.push_back(true);
    }
    if (!args.has_flag("--aligned-only")) {
        modes.push_back(false);
    }

    const std::string only = args.get_string("--only", "");
    for (const bool aligned : modes) {
        std::vector<RowResult> rows;
        for (const Table1Entry& entry : table1_benchmarks(scale)) {
            if (!only.empty() && entry.profile.name != only) {
                continue;
            }
            GenProfile profile = entry.profile;
            profile.seed += static_cast<std::uint64_t>(seed_offset);
            GenResult gen = generate_benchmark(profile);
            Database& db = gen.db;
            SegmentGrid grid = SegmentGrid::build(db);

            RowResult row;
            row.name = profile.name;
            row.s_cells = db.num_single_row_cells();
            row.d_cells = db.num_multi_row_cells();
            row.density = db.density();

            LegalizerOptions ours;
            ours.mll.check_rail = aligned;
            ours.seed = profile.seed;
            row.ours = run_legalization(db, grid, ours);
            row.gp_hpwl_m = row.ours.gp_hpwl_m;

            if (!skip_ilp) {
                reset_placement(db, grid);
                LegalizerOptions ilp = ours;
                ilp.mll.exact_evaluation = true;
                ilp.mll.use_mip = args.has_flag("--true-ilp");
                row.ilp = run_legalization(db, grid, ilp);
            }
            std::cerr << "[" << (aligned ? "aligned" : "relaxed") << "] "
                      << row.name << ": ours disp="
                      << format_fixed(row.ours.disp_avg_sites, 2)
                      << " rt=" << format_fixed(row.ours.runtime_s, 2)
                      << "s" << (skip_ilp ? "" : " | ilp disp=" +
                          format_fixed(row.ilp.disp_avg_sites, 2) + " rt=" +
                          format_fixed(row.ilp.runtime_s, 2) + "s")
                      << "\n";
            rows.push_back(std::move(row));
        }
        print_block(aligned ? "Power Line Aligned"
                            : "Power Line Not Aligned",
                    rows, !skip_ilp, csv);
    }
    return 0;
}
