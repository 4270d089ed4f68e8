/// mrlg_legalize — the command-line driver: read a design (Bookshelf,
/// LEF/DEF, or a generated synthetic one), legalize it with the DAC'16
/// multi-row flow, optionally run the detailed-placement passes, print the
/// placement quality report and emit the machine-readable run report
/// (docs/REPORT.md) that every mrlg reporting surface shares.
///
/// MRLG_VALIDATE=cheap|full arms the in-run invariant audits
/// (check/audit.hpp); the summary line then counts them, and a failed
/// audit exits 1. For an illegal result the legality checker's violations
/// go to stderr. Exit code: 0 on success (all cells placed, result legal),
/// 1 on failure, 2 on usage, parse or write errors.
///
/// Usage: kUsage below, which every usage error prints.

#include <iostream>
#include <optional>
#include <string>

#include "cli_args.hpp"
#include "db/segment.hpp"
#include "dp/detailed_placer.hpp"
#include "dp/row_polish.hpp"
#include "eval/legality.hpp"
#include "eval/report.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/lefdef.hpp"
#include "io/svg.hpp"
#include "legalize/legalizer.hpp"
#include "obs/run_report.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: mrlg_legalize <design.aux> | --lef L --def D | --gen [options]\n"
    "  --gen             legalize a synthetic benchmark\n"
    "  --singles N       generator: single-row cells   (default 2000)\n"
    "  --doubles N       generator: double-row cells   (default 200)\n"
    "  --density D       generator: target density     (default 0.6)\n"
    "  --gen-seed S      generator: rng seed           (default 1)\n"
    "  --seed S          legalizer rng seed            (default 1)\n"
    "  --threads T       plan fan-out threads, 0 = MRLG_THREADS (default 0)\n"
    "  --rx N / --ry N   MLL window radii              (default 30 / 5)\n"
    "  --exact           exact insertion-point evaluation (\"ILP\" config)\n"
    "  --relaxed         drop the power-rail parity constraint\n"
    "  --dp              run the detailed placer afterwards\n"
    "  --swap            then the global same-footprint swap pass\n"
    "  --polish          then the single-row polish pass\n"
    "  --report FILE     write the JSON run report to FILE\n"
    "  --trace FILE      write a Chrome trace-event / Perfetto JSON\n"
    "                    timeline of the parallel pipeline to FILE\n"
    "  --deterministic   counted-tick tracer clock: the report becomes a\n"
    "                    pure function of the execution path (golden mode)\n"
    "  --out DIR         write the legalized design as Bookshelf into DIR,\n"
    "                    and as <design>_legal.def there for LEF/DEF input\n"
    "  --svg FILE        render the result as SVG (gp displacement arrows\n"
    "                    below 5 000 cells)\n"
    "  --quiet           suppress the stdout summary\n";

}  // namespace

int main(int argc, char** argv) {
    const cli::Args args(
        argc, argv, kUsage,
        {"--gen", "--exact", "--relaxed", "--dp", "--swap", "--polish",
         "--deterministic", "--quiet"},
        {"--lef", "--def", "--singles", "--doubles", "--density",
         "--gen-seed", "--seed", "--threads", "--rx", "--ry", "--report",
         "--trace", "--out", "--svg"},
        /*positional=*/true);
    Database db;
    std::string design = "design";
    std::optional<LefLibrary> lef;  // LEF/DEF input: kept for DEF output
    DefNames def_names;             // with the DEF's macro and pin names

    try {
        if (args.has("--gen")) {
            GenProfile p;
            p.name = "legalize-gen";
            p.num_single = args.count<std::size_t>("--singles", 2000);
            p.num_double = args.count<std::size_t>("--doubles", 200);
            p.density = args.number("--density", 0.6);
            p.seed = args.count<std::uint64_t>("--gen-seed", p.seed);
            GenResult gen = generate_benchmark(p);
            db = std::move(gen.db);
            design = p.name;
        } else if (args.has("--lef") && args.has("--def")) {
            lef = read_lef(args.get("--lef"));
            DefReadResult r = read_def(args.get("--def"), *lef);
            db = std::move(r.db);
            design = r.design_name;
            def_names = std::move(r.names);
            db.freeze_fixed_cells();
        } else if (args.positional() != nullptr) {
            BookshelfReadResult r = read_bookshelf(args.positional());
            db = std::move(r.db);
            design = r.design_name;
            db.freeze_fixed_cells();
        } else {
            std::cerr << kUsage;
            return 2;
        }
    } catch (const ParseError& e) {
        std::cerr << "parse error: " << e.what() << "\n";
        return 2;
    }

    LegalizerOptions opts;
    opts.seed = args.count<std::uint64_t>("--seed", opts.seed);
    opts.num_threads = args.count<int>("--threads", opts.num_threads);
    opts.mll.rx = args.count<SiteCoord>("--rx", opts.mll.rx);
    opts.mll.ry = args.count<SiteCoord>("--ry", opts.mll.ry);
    opts.mll.exact_evaluation = args.has("--exact");
    opts.mll.check_rail = !args.has("--relaxed");
    const bool quiet = args.has("--quiet");

    // One tracer for the whole run; --deterministic swaps in counted
    // ticks so the report is reproducible byte for byte.
    obs::TickClock tick_clock;
    obs::WallClock wall_clock;
    const bool deterministic = args.has("--deterministic");
    obs::Tracer tracer(deterministic
                           ? static_cast<obs::Clock*>(&tick_clock)
                           : static_cast<obs::Clock*>(&wall_clock));
    obs::ScopedTracer install(tracer);

    // Wall-clock execution timeline for --trace and the (wall-only)
    // report `timeline` block, recorded only when one of them is asked
    // for. Harmless under --deterministic: the report excludes it there,
    // and goldens stay byte-identical.
    const char* report_path = args.get("--report");
    const char* trace_path = args.get("--trace");
    std::optional<obs::Timeline> timeline;
    std::optional<obs::ScopedTimeline> install_timeline;
    if (report_path != nullptr || trace_path != nullptr) {
        install_timeline.emplace(timeline.emplace());
    }

    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerStats stats;
    try {
        stats = legalize_placement(db, grid, opts);
        if (!quiet) {
            std::cout << design << ": legalized " << stats.num_cells
                      << " cells in " << stats.rounds << " rounds ("
                      << stats.direct_placements << " direct, "
                      << stats.mll_successes << " MLL, "
                      << stats.fallback_placements << " fallback, "
                      << stats.ripup_placements << " rip-up)";
            if (opts.audit != AuditLevel::kOff) {
                std::cout << ", " << stats.audits_run
                          << " in-run audits at level "
                          << to_string(opts.audit);
            }
            std::cout << "\n";
        }
        if (args.has("--dp")) {
            const DetailedPlacementStats d =
                detailed_place(db, grid, opts.mll);
            if (!quiet) {
                std::cout << "  detailed placement: " << d.moves_accepted
                          << "/" << d.moves_attempted << " moves, HPWL -"
                          << d.improvement_pct() << " % in " << d.runtime_s
                          << " s\n";
            }
        }
        if (args.has("--swap")) {
            const SwapStats ss = swap_pass(db, grid);
            if (!quiet) {
                std::cout << "  global swap: " << ss.swaps_accepted << "/"
                          << ss.swaps_attempted << " swaps, HPWL "
                          << ss.hpwl_before_um * 1e-6 << " m -> "
                          << ss.hpwl_after_um * 1e-6 << " m\n";
            }
        }
        if (args.has("--polish")) {
            const RowPolishStats rp = row_polish(db, grid);
            if (!quiet) {
                std::cout << "  row polish: " << rp.segments_accepted
                          << " segments improved, HPWL -"
                          << rp.improvement_pct() << " % ("
                          << rp.segments_skipped_multirow
                          << " segments untouchable due to multi-row "
                             "cells)\n";
            }
        }
    } catch (const AssertionError& e) {
        std::cerr << design << ": in-run audit failed:\n" << e.what()
                  << "\n";
        return 1;
    }

    if (report_path != nullptr) {
        obs::RunReportSpec spec;
        spec.tool = "mrlg_legalize";
        spec.design = design;
        spec.db = &db;
        spec.grid = &grid;
        spec.check_rail = opts.mll.check_rail;
        spec.num_threads = opts.num_threads;
        spec.options = &opts;
        spec.stats = &stats;
        spec.tracer = &tracer;
        spec.timeline = &*timeline;
        if (!obs::write_run_report(report_path, spec)) {
            return 2;
        }
    }
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(trace_path, *timeline,
                                     "mrlg_legalize " + design)) {
            return 2;
        }
    }

    if (const char* dir = args.get("--out")) {
        try {
            write_bookshelf(db, dir, design + "_legal");
            if (lef) {
                write_def(db, *lef,
                          std::string(dir) + "/" + design + "_legal.def",
                          design + "_legal", def_names);
            }
        } catch (const std::exception& e) {
            std::cerr << "write error: " << e.what() << "\n";
            return 2;
        }
    }
    if (const char* path = args.get("--svg")) {
        SvgOptions sopts;
        sopts.draw_gp_arrows = db.num_cells() < 5000;
        if (!write_svg(db, path, sopts)) {
            std::cerr << "write error: " << path << " not written\n";
            return 2;
        }
    }

    const QualityReport quality =
        make_quality_report(db, grid, opts.mll.check_rail);
    if (!quiet) {
        print_quality_report(quality, std::cout);
    }
    if (!quality.legal) {
        LegalityOptions lopts;
        lopts.check_rail_alignment = opts.mll.check_rail;
        const LegalityReport rep = check_legality(db, grid, lopts);
        for (const std::string& msg : rep.messages) {
            std::cerr << "  violation: " << msg << "\n";
        }
    }
    return stats.success && quality.legal ? 0 : 1;
}
