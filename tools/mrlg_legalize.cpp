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
/// Usage:
///   mrlg_legalize <design.aux> [options]
///   mrlg_legalize --lef tech.lef --def design.def [options]
///   mrlg_legalize --gen [options]
///     --gen             legalize a synthetic benchmark
///     --singles N       generator: single-row cells   (default 2000)
///     --doubles N       generator: double-row cells   (default 200)
///     --density D       generator: target density     (default 0.6)
///     --gen-seed S      generator: rng seed           (default 1)
///     --seed S          legalizer rng seed            (default 1)
///     --threads T       plan fan-out threads, 0 = MRLG_THREADS (default 0)
///     --rx N / --ry N   MLL window radii              (default 30 / 5)
///     --exact           exact insertion-point evaluation ("ILP" config)
///     --relaxed         drop the power-rail parity constraint
///     --dp              run the detailed placer afterwards
///     --swap            then the global same-footprint swap pass
///     --polish          then the single-row polish pass
///     --report FILE     write the JSON run report to FILE
///     --trace FILE      write a Chrome trace-event / Perfetto JSON
///                       timeline of the parallel pipeline to FILE
///     --deterministic   counted-tick tracer clock: the report becomes a
///                       pure function of the execution path (golden mode)
///     --out DIR         write the legalized design as Bookshelf into DIR,
///                       and as <design>_legal.def there for LEF/DEF input
///     --svg FILE        render the result as SVG (gp displacement arrows
///                       below 5 000 cells)
///     --quiet           suppress the stdout summary

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>

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

const char* find_arg(int argc, char** argv, const char* key) {
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], key) == 0) {
            return argv[i + 1];
        }
    }
    return nullptr;
}

bool has_flag(int argc, char** argv, const char* key) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], key) == 0) {
            return true;
        }
    }
    return false;
}

int usage() {
    std::cerr
        << "usage: mrlg_legalize <design.aux> | --lef L --def D | --gen\n"
           "       [--singles N] [--doubles N] [--density D] [--gen-seed S]\n"
           "       [--seed S] [--threads T] [--rx N] [--ry N] [--exact]\n"
           "       [--relaxed] [--dp] [--swap] [--polish] [--report FILE]\n"
           "       [--trace FILE] [--deterministic] [--out DIR] [--svg FILE]\n"
           "       [--quiet]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Database db;
    std::string design = "design";
    std::optional<LefLibrary> lef;  // LEF/DEF input: kept for DEF output

    try {
        if (has_flag(argc, argv, "--gen")) {
            GenProfile p;
            p.name = "legalize-gen";
            p.num_single = 2000;
            p.num_double = 200;
            p.density = 0.6;
            if (const char* s = find_arg(argc, argv, "--singles")) {
                p.num_single = static_cast<std::size_t>(std::atol(s));
            }
            if (const char* s = find_arg(argc, argv, "--doubles")) {
                p.num_double = static_cast<std::size_t>(std::atol(s));
            }
            if (const char* s = find_arg(argc, argv, "--density")) {
                p.density = std::atof(s);
            }
            if (const char* s = find_arg(argc, argv, "--gen-seed")) {
                p.seed = static_cast<std::uint64_t>(std::atoll(s));
            }
            GenResult gen = generate_benchmark(p);
            db = std::move(gen.db);
            design = p.name;
        } else if (find_arg(argc, argv, "--lef") != nullptr &&
                   find_arg(argc, argv, "--def") != nullptr) {
            lef = read_lef(find_arg(argc, argv, "--lef"));
            DefReadResult r = read_def(find_arg(argc, argv, "--def"), *lef);
            db = std::move(r.db);
            design = r.design_name;
            db.freeze_fixed_cells();
        } else if (argc >= 2 && argv[1][0] != '-') {
            BookshelfReadResult r = read_bookshelf(argv[1]);
            db = std::move(r.db);
            design = r.design_name;
            db.freeze_fixed_cells();
        } else {
            return usage();
        }
    } catch (const ParseError& e) {
        std::cerr << "parse error: " << e.what() << "\n";
        return 2;
    }

    LegalizerOptions opts;
    if (const char* s = find_arg(argc, argv, "--seed")) {
        opts.seed = static_cast<std::uint64_t>(std::atoll(s));
    }
    if (const char* s = find_arg(argc, argv, "--threads")) {
        opts.num_threads = std::atoi(s);
    }
    if (const char* s = find_arg(argc, argv, "--rx")) {
        opts.mll.rx = static_cast<SiteCoord>(std::atol(s));
    }
    if (const char* s = find_arg(argc, argv, "--ry")) {
        opts.mll.ry = static_cast<SiteCoord>(std::atol(s));
    }
    opts.mll.exact_evaluation = has_flag(argc, argv, "--exact");
    opts.mll.check_rail = !has_flag(argc, argv, "--relaxed");
    const bool quiet = has_flag(argc, argv, "--quiet");

    // One tracer for the whole run; --deterministic swaps in counted
    // ticks so the report is reproducible byte for byte.
    obs::TickClock tick_clock;
    obs::WallClock wall_clock;
    const bool deterministic = has_flag(argc, argv, "--deterministic");
    obs::Tracer tracer(deterministic
                           ? static_cast<obs::Clock*>(&tick_clock)
                           : static_cast<obs::Clock*>(&wall_clock));
    obs::ScopedTracer install(tracer);

    // Wall-clock execution timeline for --trace and the (wall-only)
    // report `timeline` block. Harmless under --deterministic: the report
    // excludes it there, and goldens stay byte-identical.
    const char* trace_path = find_arg(argc, argv, "--trace");
    obs::Timeline timeline;
    obs::ScopedTimeline install_timeline(timeline);

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
        if (has_flag(argc, argv, "--dp")) {
            DetailedPlacementOptions dopts;
            dopts.mll = opts.mll;
            const DetailedPlacementStats d = detailed_place(db, grid, dopts);
            if (!quiet) {
                std::cout << "  detailed placement: " << d.moves_accepted
                          << "/" << d.moves_attempted << " moves, HPWL -"
                          << d.improvement_pct() << " % in " << d.runtime_s
                          << " s\n";
            }
        }
        if (has_flag(argc, argv, "--swap")) {
            const SwapStats ss = swap_pass(db, grid);
            if (!quiet) {
                std::cout << "  global swap: " << ss.swaps_accepted << "/"
                          << ss.swaps_attempted << " swaps, HPWL "
                          << ss.hpwl_before_um * 1e-6 << " m -> "
                          << ss.hpwl_after_um * 1e-6 << " m\n";
            }
        }
        if (has_flag(argc, argv, "--polish")) {
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
    spec.timeline = &timeline;
    const obs::Json report = obs::make_run_report(spec);
    if (const char* path = find_arg(argc, argv, "--report")) {
        if (!obs::write_json_file(path, report)) {
            return 2;
        }
    }
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(trace_path, timeline,
                                     "mrlg_legalize " + design)) {
            return 2;
        }
    }

    if (const char* dir = find_arg(argc, argv, "--out")) {
        try {
            write_bookshelf(db, dir, design + "_legal");
            if (lef) {
                write_def(db, *lef,
                          std::string(dir) + "/" + design + "_legal.def",
                          design + "_legal");
            }
        } catch (const std::exception& e) {
            std::cerr << "write error: " << e.what() << "\n";
            return 2;
        }
    }
    if (const char* path = find_arg(argc, argv, "--svg")) {
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
