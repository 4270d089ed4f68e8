/// bench_parallel — thread-scaling sweep of the legalizer's plan fan-out.
/// For each synthesized design and evaluation mode, legalizes the same
/// global placement at 1/2/4/8 threads. Every run must reproduce the
/// first thread count's placement bit for bit, and that placement must
/// equal qa::reference_legalize's, the serial Algorithm 1 loop (the
/// pipeline's serial-equivalence contract, legalize/pipeline.hpp). The
/// runs are emitted into a machine-readable JSON trajectory together with
/// the real machine configuration — speedup numbers are meaningless
/// without the hardware_threads that produced them.
///
/// Flags:
///   --json PATH    output file (default BENCH_parallel.json)
///   --threads CSV  thread counts to sweep (default "1,2,4,8")
///   --scale F      cell-count scale factor (default 1.0)
///   --seed N       generator seed offset (default 0)
///   --approx-only / --exact-only   restrict the evaluation modes
///   --large-only   run only the largest design
///   --trace PATH   install a wall-clock timeline and write the last
///                  run's Chrome trace-event / Perfetto JSON to PATH
///                  (off by default so the no-timeline overhead claim
///                  stays measurable here)

#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "eval/metrics.hpp"
#include "io/profiles.hpp"
#include "obs/timeline.hpp"
#include "qa/oracles.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

std::vector<int> parse_threads(const std::string& csv) {
    std::vector<int> out;
    std::size_t pos = 0;
    while (pos < csv.size()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
        const int v = std::atoi(tok.c_str());
        if (v > 0) {
            out.push_back(v);
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    if (out.empty()) {
        out = {1, 2, 4, 8};
    }
    return out;
}

std::vector<std::pair<SiteCoord, SiteCoord>> snapshot(const Database& db) {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    pos.reserve(db.num_cells());
    for (const Cell& c : db.cells()) {
        pos.emplace_back(c.x(), c.y());
    }
    return pos;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    set_log_level(LogLevel::kWarn);
    const std::string json_path =
        args.get_string("--json", "BENCH_parallel.json");
    const std::vector<int> threads =
        parse_threads(args.get_string("--threads", "1,2,4,8"));
    const double scale = args.get_double("--scale", 1.0);
    const int seed_offset = args.get_int("--seed", 0);

    std::vector<std::string> designs = parallel_profile_names();
    if (args.has_flag("--large-only")) {
        designs = {designs.back()};
    }
    const std::string trace_path = args.get_string("--trace", "");
    // The timeline is installed ONLY with --trace: default bench runs
    // measure the true zero-observer cost of the instrumented hot paths.
    std::unique_ptr<obs::Timeline> timeline;
    std::unique_ptr<obs::ScopedTimeline> timeline_guard;
    std::vector<bool> modes;  // true = exact evaluation
    if (!args.has_flag("--exact-only")) {
        modes.push_back(false);
    }
    if (!args.has_flag("--approx-only")) {
        modes.push_back(true);
    }

    Json root = Json::object();
    root.set("bench", Json::str("bench_parallel"));
    root.set("scale", Json::num(scale));
    root.set("seed_offset", Json::num(static_cast<std::int64_t>(seed_offset)));
    Json runs = Json::array();

    for (const std::string& design_name : designs) {
        GenProfile profile;
        if (!parallel_profile(design_name, scale, seed_offset, profile)) {
            std::cerr << "unknown parallel design profile: " << design_name
                      << "\n";
            return 1;
        }
        GenResult gen = generate_benchmark(profile);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        const std::size_t num_cells = db.num_cells();

        for (const bool exact : modes) {
            // Every run must reproduce the first thread count's placement.
            std::vector<std::pair<SiteCoord, SiteCoord>> reference_pos;
            double baseline_time = 0.0;
            for (const int t : threads) {
                reset_placement(db, grid);
                if (!trace_path.empty()) {
                    // Fresh timeline per run; the last run's events are
                    // what ends up in the trace file.
                    timeline_guard.reset();
                    timeline = std::make_unique<obs::Timeline>();
                    timeline_guard =
                        std::make_unique<obs::ScopedTimeline>(*timeline);
                }
                LegalizerOptions opts;
                opts.seed = profile.seed;
                opts.num_threads = t;
                opts.mll.exact_evaluation = exact;
                const RunMetrics m = run_legalization(db, grid, opts);
                const auto pos = snapshot(db);
                if (reference_pos.empty()) {
                    reference_pos = pos;
                    baseline_time = m.runtime_s;
                    // Once per design and mode: the serial reference loop
                    // must land every cell on the same site.
                    reset_placement(db, grid);
                    qa::reference_legalize(db, grid, opts);
                    if (snapshot(db) != reference_pos) {
                        std::cerr << "FATAL: placement differs from "
                                     "qa::reference_legalize (design="
                                  << design_name << " mode="
                                  << (exact ? "exact" : "approx") << ")\n";
                        return 1;
                    }
                }
                const bool identical = pos == reference_pos;
                const double speedup =
                    m.runtime_s > 0.0 ? baseline_time / m.runtime_s : 0.0;
                std::cerr << design_name << " ["
                          << (exact ? "exact" : "approx") << "] t=" << t
                          << ": " << format_fixed(m.runtime_s, 3) << "s"
                          << " speedup=" << format_fixed(speedup, 2)
                          << (identical ? "" : "  MISMATCH") << "\n";

                // Sanity guard: no run can legitimately beat linear
                // scaling. A speedup above the thread count (plus
                // timer-noise slack) means the baseline, the clock, or
                // the recorded environment is lying — exactly the class
                // of bug behind a hardware_threads:1 machine reporting
                // 7 pool workers.
                if (speedup > static_cast<double>(t) + 0.25) {
                    std::cerr << "FATAL: speedup_vs_t1 "
                              << format_fixed(speedup, 2)
                              << " exceeds the thread count " << t
                              << " (design=" << design_name
                              << ") - baseline or clock is broken\n";
                    return 1;
                }

                const ThreadPoolConfig tp_now = ThreadPool::config();
                Json run = Json::object();
                run.set("design", Json::str(design_name));
                run.set("cells", Json::num(num_cells));
                run.set("mode", Json::str(exact ? "exact" : "approx"));
                run.set("threads", Json::num(static_cast<std::int64_t>(t)));
                run.set("threads_effective",
                        Json::num(static_cast<std::int64_t>(
                            std::min(t, tp_now.pool_workers + 1))));
                run.set("legalize_s", Json::num(m.runtime_s));
                run.set("success", Json::boolean(m.success));
                run.set("points_evaluated", Json::num(m.points_evaluated));
                run.set("waves", Json::num(m.waves));
                run.set("conflict_requeues", Json::num(m.conflict_requeues));
                run.set("disp_avg_sites", Json::num(m.disp_avg_sites));
                run.set("dhpwl_pct", Json::num(m.dhpwl_pct));
                run.set("speedup_vs_t1", Json::num(speedup));
                run.set("identical_to_serial", Json::boolean(identical));
                runs.push(std::move(run));
                if (!identical) {
                    std::cerr << "FATAL: run diverged from the serial "
                                 "placement (design=" << design_name
                              << " threads=" << t << ")\n";
                    return 1;
                }
            }
        }
    }
    root.set("runs", std::move(runs));

    // Machine configuration, captured AFTER the sweep so the global pool
    // has been instantiated and pool_workers_active reflects the helper
    // threads that really ran (not -1, and never a made-up count that
    // contradicts hardware_threads).
    const ThreadPoolConfig tp = ThreadPool::config();
    Json env = Json::object();
    env.set("hardware_threads", Json::num(tp.hardware_threads));
    env.set("default_threads", Json::num(tp.default_threads));
    env.set("pool_workers", Json::num(tp.pool_workers));
    env.set("pool_workers_active", Json::num(tp.pool_workers_active));
    env.set("mrlg_threads_env", Json::boolean(tp.env_override));
    root.set("environment", std::move(env));

    if (!write_json_file(json_path, root)) {
        return 1;
    }
    std::cerr << "wrote " << json_path << "\n";
    if (!trace_path.empty() && timeline != nullptr) {
        if (!obs::write_chrome_trace(trace_path, *timeline,
                                     "bench_parallel")) {
            return 1;
        }
        std::cerr << "wrote " << trace_path << "\n";
    }
    return 0;
}
