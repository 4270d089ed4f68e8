/// mrlg_fuzz — differential fuzz driver for the legalization stack
/// (src/qa). Generates seeded adversarial cases, runs every independent
/// implementation against its oracle twin, shrinks any mismatch to a
/// minimal repro and (optionally) dumps it as a replayable Bookshelf
/// design. Bit-reproducible: the same --seed yields the same report at
/// any --threads value. Exit code: 0 when all oracles agree, 1 on a
/// divergence, 2 on usage errors.
///
/// Usage: kUsage below, which every usage error prints.

#include <cstdlib>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "obs/run_report.hpp"
#include "qa/fuzz.hpp"

using namespace mrlg;

namespace {

constexpr const char* kUsage =
    "usage: mrlg_fuzz [options] | --replay repro.aux\n"
    "  --seed S          master seed                    (default 1)\n"
    "  --iters N         iterations per scenario        (default 50,\n"
    "                    or the MRLG_FUZZ_ITERS environment variable)\n"
    "  --threads T       worker threads (MLL scans; the legalizer's\n"
    "                    plan fan-out in the design scenario),\n"
    "                    0 = env default (default 0)\n"
    "  --scenario NAME   restrict to one scenario:\n"
    "                    legality|local|mll|ripup|design (default: all)\n"
    "  --out DIR         dump shrunk repros under DIR\n"
    "  --no-shrink       keep failing cases at full size\n"
    "  --no-ilp          skip the MIP cross-check\n"
    "  --max-failures N  stop after N divergences       (default 8)\n"
    "  --report FILE     write the JSON run report (docs/REPORT.md)\n"
    "  --trace FILE      write a Chrome trace-event / Perfetto JSON\n"
    "                    timeline of the campaign's parallel phases\n"
    "  --replay FILE.aux replay a dumped repro instead of fuzzing\n";

}  // namespace

int main(int argc, char** argv) {
    const cli::Args args(argc, argv, kUsage, {"--no-shrink", "--no-ilp"},
                         {"--seed", "--iters", "--threads", "--scenario",
                          "--out", "--max-failures", "--report", "--trace",
                          "--replay"});
    if (const char* aux = args.get("--replay")) {
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
        opts.iters = args.count_of<int>(env, "MRLG_FUZZ_ITERS");
    }
    opts.seed = args.count<std::uint64_t>("--seed", opts.seed);
    opts.iters = args.count<int>("--iters", opts.iters);
    opts.num_threads = args.count<int>("--threads", opts.num_threads);
    opts.max_failures = args.count<int>("--max-failures", opts.max_failures);
    if (const char* s = args.get("--out")) {
        opts.repro_dir = s;
    }
    if (const char* s = args.get("--scenario")) {
        qa::FuzzScenario scen{};
        if (!qa::scenario_from_string(s, scen)) {
            args.fail(std::string("unknown scenario '") + s + "'");
        }
        opts.scenarios.push_back(scen);
    }
    opts.shrink = !args.has("--no-shrink");
    opts.exercise_ilp = !args.has("--no-ilp");
    if (opts.iters <= 0) {
        args.fail("--iters must be at least 1");
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
    if (const char* path = args.get("--report")) {
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
    if (const char* path = args.get("--trace")) {
        if (!obs::write_chrome_trace(
                path, timeline,
                "mrlg_fuzz seed " + std::to_string(opts.seed))) {
            return 2;
        }
    }
    return report.ok() ? 0 : 1;
}
