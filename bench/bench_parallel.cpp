/// bench_parallel — thread-scaling sweep of the legalizer's plan fan-out.
/// For each synthesized design and evaluation mode, legalizes the same
/// global placement at each thread count with a wall-clock Timeline
/// installed. Every run must reproduce the first thread count's placement
/// bit for bit, and that placement must equal qa::reference_legalize's,
/// the serial Algorithm 1 loop (the pipeline's serial-equivalence
/// contract, legalize/pipeline.hpp). Every run's Timeline must be
/// complete: no dropped events, one wave per LegalizerStats::waves and
/// one plan task per direct, successful or failed attempt. The JSON
/// trajectory holds each run's timings, stats and scalar schedule summary
/// (obs/timeline.hpp), the scaling limiters ranked per design and mode at
/// the highest thread count, and the real machine configuration —
/// speedup numbers are meaningless without the hardware_threads that
/// produced them.
///
/// Flags:
///   --design CSV   parallel_s | parallel_m | parallel_l, comma separated
///                  (default: all three)
///   --mode M       approx | exact | both (default both)
///   --threads CSV  thread counts to sweep (default "1,2,4,8")
///   --scale F      cell-count scale factor (default 1.0)
///   --seed N       generator seed offset (default 0)
///   --json PATH    output file (default BENCH_parallel.json)
///   --trace PATH   write the last run's Chrome trace-event / Perfetto
///                  JSON to PATH
/// Exit code: 0 when every check passes, 1 when one fails, 2 on usage
/// errors.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "io/profiles.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "qa/oracles.hpp"
#include "util/logging.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

/// Timeline ring size per lane, in events per cell. A one-round run
/// records two events per task plus three per wave and one per round, and
/// at t=1 all of them land on one lane: parallel_l records 55 201 for
/// 26 400 cells. A run that still overflows fails its completeness check.
constexpr std::size_t kEventsPerCell = 4;

int usage() {
    std::cerr << "usage: bench_parallel [--design CSV] "
                 "[--mode approx|exact|both]\n"
                 "       [--threads CSV] [--scale F] [--seed N]\n"
                 "       [--json PATH] [--trace PATH]\n";
    return 2;
}

/// The non-empty fields of a comma-separated flag value.
std::vector<std::string> split_csv(const std::string& csv) {
    std::vector<std::string> out;
    for (const std::string_view tok : split(csv, ',')) {
        if (!tok.empty()) {
            out.emplace_back(tok);
        }
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

/// One candidate scaling limiter with a comparable score in [0, 1].
struct Limiter {
    const char* name;
    double score;
    std::string detail;
};

/// Ranks the candidate limiters of one run (the sweep's highest thread
/// count). Scores are shares of run time (or of the requested
/// parallelism) claimed by each serial/imbalance mechanism, so they are
/// directly comparable; the largest one is the knob to turn next.
std::vector<Limiter> rank_limiters(const obs::ScheduleReport& s,
                                   const ThreadPoolConfig& tp) {
    std::vector<Limiter> out;
    const int want = s.threads;

    if (tp.hardware_threads < want) {
        out.push_back(
            {"hardware_threads",
             1.0 - static_cast<double>(tp.hardware_threads) /
                       static_cast<double>(want),
             "machine has " + std::to_string(tp.hardware_threads) +
                 " hardware thread(s) for a " + std::to_string(want) +
                 "-thread sweep; extra workers only timeslice"});
    }
    out.push_back({"commit_serialization", s.commit_serial_share,
                   format_fixed(100.0 * s.commit_serial_share, 1) +
                       "% of pipeline time is the serial commit phase"});
    out.push_back({"partition_serialization", s.partition_share,
                   format_fixed(100.0 * s.partition_share, 1) +
                       "% of pipeline time is the serial wave "
                       "schedule"});
    out.push_back({"straggler_imbalance", s.straggler_share,
                   format_fixed(100.0 * s.straggler_share, 1) +
                       "% of plan wall time is the longest task "
                       "overhanging a balanced schedule"});
    const double avg_tasks =
        s.waves_total > 0 ? static_cast<double>(s.tasks_total) /
                                static_cast<double>(s.waves_total)
                          : 0.0;
    const double thin =
        std::max(0.0, 1.0 - avg_tasks / (2.0 * static_cast<double>(want)));
    out.push_back({"thin_waves", thin,
                   "average of " + format_fixed(avg_tasks, 1) +
                       " plan tasks per wave against a " +
                       std::to_string(want) + "-thread budget"});

    std::stable_sort(out.begin(), out.end(),
                     [](const Limiter& a, const Limiter& b) {
                         return a.score > b.score;
                     });
    return out;
}

Json limiters_json(const std::vector<Limiter>& ranked) {
    Json arr = Json::array();
    for (const Limiter& l : ranked) {
        Json j = Json::object();
        j.set("limiter", Json::str(l.name));
        j.set("score", Json::num(l.score));
        j.set("detail", Json::str(l.detail));
        arr.push(std::move(j));
    }
    return arr;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    set_log_level(LogLevel::kWarn);
    const std::string json_path =
        args.get_string("--json", "BENCH_parallel.json");
    const std::string trace_path = args.get_string("--trace", "");
    const double scale = args.get_double("--scale", 1.0);
    const int seed_offset = args.get_int("--seed", 0);

    std::vector<std::string> designs =
        split_csv(args.get_string("--design", ""));
    if (designs.empty()) {
        designs = parallel_profile_names();
    }
    std::vector<int> threads;
    for (const std::string& tok :
         split_csv(args.get_string("--threads", "1,2,4,8"))) {
        const int t = std::atoi(tok.c_str());
        if (t <= 0) {
            return usage();
        }
        threads.push_back(t);
    }
    const std::string mode = args.get_string("--mode", "both");
    std::vector<bool> modes;  // true = exact evaluation
    if (mode == "approx" || mode == "both") {
        modes.push_back(false);
    }
    if (mode == "exact" || mode == "both") {
        modes.push_back(true);
    }
    if (threads.empty() || modes.empty()) {
        return usage();
    }

    // The last run's timeline outlives the sweep for --trace.
    std::unique_ptr<obs::Timeline> timeline;
    Limiter top{"", -1.0, ""};
    Json runs = Json::array();
    Json bottlenecks = Json::array();

    for (const std::string& design_name : designs) {
        GenProfile profile;
        if (!parallel_profile(design_name, scale, seed_offset, profile)) {
            std::cerr << "unknown parallel design profile: " << design_name
                      << "\n";
            return usage();
        }
        GenResult gen = generate_benchmark(profile);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        const std::size_t num_cells = db.num_cells();

        for (const bool exact : modes) {
            const char* mode_name = exact ? "exact" : "approx";
            // Every run must reproduce the first thread count's placement.
            std::vector<std::pair<SiteCoord, SiteCoord>> reference_pos;
            double baseline_time = 0.0;
            obs::ScheduleReport max_t_sched;
            for (const int t : threads) {
                reset_placement(db, grid);
                LegalizerOptions opts;
                opts.seed = profile.seed;
                opts.num_threads = t;
                opts.mll.exact_evaluation = exact;
                timeline = std::make_unique<obs::Timeline>(
                    obs::Timeline::default_max_lanes(),
                    kEventsPerCell * num_cells);
                RunMetrics m;
                {
                    obs::ScopedTimeline install(*timeline);
                    m = run_legalization(db, grid, opts);
                }
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
                                  << design_name << " mode=" << mode_name
                                  << ")\n";
                        return 1;
                    }
                }
                const bool identical = pos == reference_pos;
                const double speedup =
                    m.runtime_s > 0.0 ? baseline_time / m.runtime_s : 0.0;
                const obs::ScheduleReport sched =
                    obs::derive_schedule_report(*timeline, t);
                std::cerr << design_name << " [" << mode_name << "] t=" << t
                          << ": " << format_fixed(m.runtime_s, 3) << "s"
                          << " speedup=" << format_fixed(speedup, 2)
                          << " util="
                          << format_fixed(sched.pool_utilization, 2)
                          << " commit="
                          << format_fixed(sched.commit_serial_share, 2)
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
                // The schedule summary must count the whole run, or its
                // shares describe a sample.
                const std::size_t attempts =
                    m.direct + m.mll + m.mll_failures;
                if (sched.dropped_events != 0 ||
                    sched.waves_total != m.waves ||
                    sched.tasks_total != attempts) {
                    std::cerr << "FATAL: incomplete timeline (design="
                              << design_name << " threads=" << t
                              << "): dropped_events=" << sched.dropped_events
                              << " waves_total=" << sched.waves_total
                              << " of " << m.waves
                              << " tasks_total=" << sched.tasks_total
                              << " of " << attempts << "\n";
                    return 1;
                }

                Json run = Json::object();
                run.set("design", Json::str(design_name));
                run.set("cells", Json::num(num_cells));
                run.set("mode", Json::str(mode_name));
                run.set("threads", Json::num(static_cast<std::int64_t>(t)));
                run.set("threads_effective",
                        Json::num(static_cast<std::int64_t>(std::min(
                            t, ThreadPool::config().pool_workers + 1))));
                run.set("legalize_s", Json::num(m.runtime_s));
                run.set("success", Json::boolean(m.success));
                run.set("direct", Json::num(m.direct));
                run.set("mll_successes", Json::num(m.mll));
                run.set("mll_failures", Json::num(m.mll_failures));
                run.set("points_evaluated", Json::num(m.points_evaluated));
                run.set("waves", Json::num(m.waves));
                run.set("conflict_requeues", Json::num(m.conflict_requeues));
                run.set("disp_avg_sites", Json::num(m.disp_avg_sites));
                run.set("dhpwl_pct", Json::num(m.dhpwl_pct));
                run.set("speedup_vs_t1", Json::num(speedup));
                run.set("identical_to_serial", Json::boolean(identical));
                run.set("schedule", obs::schedule_summary_json(sched));
                runs.push(std::move(run));
                if (!identical) {
                    std::cerr << "FATAL: run diverged from the serial "
                                 "placement (design=" << design_name
                              << " threads=" << t << ")\n";
                    return 1;
                }
                if (sched.threads >= max_t_sched.threads) {
                    max_t_sched = sched;
                }
            }

            // Bottleneck report: the ranked limiters of the run at the
            // sweep's highest thread count.
            const std::vector<Limiter> ranked =
                rank_limiters(max_t_sched, ThreadPool::config());
            Json b = Json::object();
            b.set("design", Json::str(design_name));
            b.set("mode", Json::str(mode_name));
            b.set("threads", Json::num(max_t_sched.threads));
            b.set("top_limiter", Json::str(ranked.front().name));
            b.set("ranked", limiters_json(ranked));
            bottlenecks.push(std::move(b));
            if (ranked.front().score > top.score) {
                top = ranked.front();
            }
            std::cout << "bottleneck report [" << design_name << ", "
                      << mode_name << ", t=" << max_t_sched.threads
                      << "]:\n";
            int rank = 1;
            for (const Limiter& l : ranked) {
                std::cout << "  " << rank++ << ". " << l.name << " ("
                          << format_fixed(l.score, 2) << "): " << l.detail
                          << "\n";
            }
        }
    }
    std::cout << "top scaling limiter: " << top.name << " - " << top.detail
              << "\n";

    Json root = Json::object();
    root.set("bench", Json::str("bench_parallel"));
    root.set("scale", Json::num(scale));
    root.set("seed_offset", Json::num(static_cast<std::int64_t>(seed_offset)));
    root.set("runs", std::move(runs));
    root.set("bottlenecks", std::move(bottlenecks));
    root.set("top_limiter", Json::str(top.name));
    // Captured after the sweep, so the global pool has been instantiated
    // and pool_workers_active reflects the helper threads that really ran.
    root.set("environment", obs::environment_json());

    if (!write_json_file(json_path, root)) {
        return 1;
    }
    std::cerr << "wrote " << json_path << "\n";
    if (!trace_path.empty()) {
        if (!obs::write_chrome_trace(trace_path, *timeline,
                                     "bench_parallel " + designs.back())) {
            return 1;
        }
        std::cerr << "wrote " << trace_path << "\n";
    }
    return 0;
}
