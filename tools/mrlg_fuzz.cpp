/// mrlg_fuzz — differential fuzz driver for the legalization stack
/// (src/qa). Generates seeded adversarial cases, runs every independent
/// implementation against its oracle twin, shrinks any mismatch to a
/// minimal repro and (optionally) dumps it as a replayable Bookshelf
/// design. Bit-reproducible: the same --seed yields the same report at
/// any --threads value. Exit code: 0 when all oracles agree, 1 on a
/// divergence, 2 on usage errors.
///
/// Usage:
///   mrlg_fuzz [options]
///   mrlg_fuzz --replay repro.aux
///     --seed S          master seed                    (default 1)
///     --iters N         iterations per scenario        (default 50,
///                       or the MRLG_FUZZ_ITERS environment variable)
///     --threads T       worker threads (MLL scans; the legalizer's
///                       plan fan-out in the design scenario),
///                       0 = env default (default 0)
///     --scenario NAME   restrict to one scenario:
///                       legality|local|mll|ripup|design (default: all)
///     --out DIR         dump shrunk repros under DIR
///     --no-shrink       keep failing cases at full size
///     --no-ilp          skip the MIP cross-check
///     --max-failures N  stop after N divergences       (default 8)
///     --report FILE     write the JSON run report (docs/REPORT.md)
///     --trace FILE      write a Chrome trace-event / Perfetto JSON
///                       timeline of the campaign's parallel phases
///     --replay FILE.aux replay a dumped repro instead of fuzzing

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "obs/run_report.hpp"
#include "qa/fuzz.hpp"

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
    std::cerr << "usage: mrlg_fuzz [--seed S] [--iters N] [--threads T]\n"
                 "       [--scenario legality|local|mll|ripup|design]\n"
                 "       [--out DIR] [--no-shrink] [--no-ilp]\n"
                 "       [--max-failures N] [--report FILE] [--trace FILE]\n"
                 "       | --replay repro.aux\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (const char* aux = find_arg(argc, argv, "--replay")) {
        try {
            const std::string diff = qa::replay_repro(aux);
            if (diff.empty()) {
                std::cout << aux << ": all oracles agree\n";
                return 0;
            }
            std::cout << aux << ": " << diff << "\n";
            return 1;
        } catch (const std::exception& e) {
            std::cerr << aux << ": " << e.what() << "\n";
            return 2;
        }
    }

    qa::FuzzOptions opts;
    if (const char* env = std::getenv("MRLG_FUZZ_ITERS")) {
        opts.iters = std::atoi(env);
    }
    if (const char* s = find_arg(argc, argv, "--seed")) {
        opts.seed = static_cast<std::uint64_t>(std::atoll(s));
    }
    if (const char* s = find_arg(argc, argv, "--iters")) {
        opts.iters = std::atoi(s);
    }
    if (const char* s = find_arg(argc, argv, "--threads")) {
        opts.num_threads = std::atoi(s);
    }
    if (const char* s = find_arg(argc, argv, "--max-failures")) {
        opts.max_failures = std::atoi(s);
    }
    if (const char* s = find_arg(argc, argv, "--out")) {
        opts.repro_dir = s;
    }
    if (const char* s = find_arg(argc, argv, "--scenario")) {
        qa::FuzzScenario scen{};
        if (!qa::scenario_from_string(s, scen)) {
            return usage();
        }
        opts.scenarios.push_back(scen);
    }
    opts.shrink = !has_flag(argc, argv, "--no-shrink");
    opts.exercise_ilp = !has_flag(argc, argv, "--no-ilp");
    if (opts.iters <= 0) {
        return usage();
    }

    obs::Tracer tracer;
    obs::Timeline timeline;
    qa::FuzzReport report;
    {
        obs::ScopedTracer install(tracer);
        obs::ScopedTimeline install_timeline(timeline);
        report = qa::run_fuzz(opts);
    }
    std::cout << "mrlg_fuzz seed " << opts.seed << ": " << report.summary();
    if (const char* path = find_arg(argc, argv, "--report")) {
        obs::RunReportSpec spec;
        spec.tool = "mrlg_fuzz";
        spec.design = "fuzz-seed-" + std::to_string(opts.seed);
        spec.num_threads = opts.num_threads;
        spec.tracer = &tracer;
        spec.timeline = &timeline;
        if (!obs::write_run_report(path, spec)) {
            return 2;
        }
    }
    if (const char* path = find_arg(argc, argv, "--trace")) {
        if (!obs::write_chrome_trace(
                path, timeline,
                "mrlg_fuzz seed " + std::to_string(opts.seed))) {
            return 2;
        }
    }
    return report.ok() ? 0 : 1;
}
