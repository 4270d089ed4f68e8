/// bench_parallel — thread-scaling sweep of the legalizer's plan fan-out.
/// For each synthesized design and evaluation mode, legalizes the same
/// global placement at each thread count kRunsPerConfig (3) times with a
/// wall-clock Timeline installed, and reports each timing as the median,
/// min and max of those runs. Every run must reproduce the first run's
/// placement bit for bit, and that placement must equal
/// qa::reference_legalize's, the serial Algorithm 1 loop (the pipeline's
/// serial-equivalence contract, legalize/pipeline.hpp). Every run's
/// Timeline must be complete: no dropped events, one wave per
/// LegalizerStats::waves and one plan task per direct, successful or
/// failed attempt. The JSON trajectory holds, per design, mode and thread
/// count, the timing's median, min and max, the stats and the median
/// run's scalar schedule summary (obs/timeline.hpp); the scaling limiters
/// ranked per design and mode at the highest thread count; and the real
/// machine configuration — speedup numbers are meaningless without the
/// hardware_threads that produced them.
///
/// Flags:
///   --design CSV   parallel_s | parallel_m | parallel_l, comma separated
///                  (default: all three)
///   --mode M       approx | exact | both (default both)
///   --threads CSV  thread counts to sweep, starting at 1: the t=1 runs
///                  are the baseline of speedup_vs_t1 and of the CPU-time
///                  guard (default "1,2,4,8")
///   --scale F      cell-count scale factor (default 1.0)
///   --seed N       generator seed offset (default 0)
///   --json PATH    output file (default BENCH_parallel.json)
///   --trace PATH   write the last run's Chrome trace-event / Perfetto
///                  JSON to PATH
/// No run can beat linear scaling, so the sweep fails when the t=1 runs'
/// median process CPU time over a median time at t threads exceeds
/// t + 0.25: the baseline or the clock would be wrong. CPU time keeps
/// other load on the host, which slows the t=1 runs' wall clock, from
/// tripping this guard; speedup_vs_t1 stays a wall-clock ratio.
/// Exit code: 0 when every check passes, 1 when one fails (a run that
/// leaves a cell unplaced or breaks a §2 constraint fails too), 2 on
/// usage errors: an unknown flag, design or mode, a number that does not
/// parse whole, a thread count below 1 or a --threads list that does not
/// start at 1.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cli_args.hpp"
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

/// Runs per design, mode and thread count. Odd, so the median time is one
/// run's and that run's schedule summary is the one recorded.
constexpr int kRunsPerConfig = 3;

constexpr const char* kUsage =
    "usage: bench_parallel [--design CSV] [--mode approx|exact|both]\n"
    "       [--threads CSV starting at 1] [--scale F] [--seed N]\n"
    "       [--json PATH] [--trace PATH]\n";

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
    const cli::Args args(argc, argv, kUsage, {},
                         {"--design", "--mode", "--threads", "--scale",
                          "--seed", "--json", "--trace"});
    set_log_level(LogLevel::kWarn);
    const std::string json_path = args.get("--json", "BENCH_parallel.json");
    const char* trace_path = args.get("--trace");
    const double scale = args.number("--scale", 1.0);
    if (scale <= 0.0) {
        args.fail("--scale needs a number > 0");
    }
    const int seed_offset = args.count<int>("--seed", 0);

    std::vector<std::string> designs = split_csv(args.get("--design", ""));
    if (designs.empty()) {
        designs = parallel_profile_names();
    }
    std::vector<GenProfile> profiles(designs.size());
    for (std::size_t i = 0; i < designs.size(); ++i) {
        if (!parallel_profile(designs[i], scale, seed_offset, profiles[i])) {
            args.fail("unknown parallel design profile '" + designs[i] +
                      "'");
        }
    }
    std::vector<int> threads;
    for (const std::string& tok : split_csv(args.get("--threads", "1,2,4,8"))) {
        const int t = args.count_of<int>(tok, "--threads");
        if (t < 1) {
            args.fail("--threads needs thread counts >= 1");
        }
        threads.push_back(t);
    }
    const std::string mode = args.get("--mode", "both");
    std::vector<bool> modes;  // true = exact evaluation
    if (mode == "approx" || mode == "both") {
        modes.push_back(false);
    }
    if (mode == "exact" || mode == "both") {
        modes.push_back(true);
    }
    if (threads.empty()) {
        args.fail("--threads needs at least one thread count");
    }
    if (threads.front() != 1) {
        args.fail("--threads must start at 1: the t=1 runs are the baseline "
                  "of speedup_vs_t1 and of the CPU-time guard");
    }
    if (modes.empty()) {
        args.fail("unknown --mode '" + mode + "'");
    }

    // The last run's timeline outlives the sweep for --trace.
    std::unique_ptr<obs::Timeline> timeline;
    Limiter top{"", -1.0, ""};
    Json runs = Json::array();
    Json bottlenecks = Json::array();

    for (const GenProfile& profile : profiles) {
        const std::string& design_name = profile.name;
        GenResult gen = generate_benchmark(profile);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        const std::size_t num_cells = db.num_cells();

        for (const bool exact : modes) {
            const char* mode_name = exact ? "exact" : "approx";
            // Every run must reproduce the first run's placement.
            std::vector<std::pair<SiteCoord, SiteCoord>> reference_pos;
            double baseline_time = 0.0;  // median at t=1
            double baseline_cpu = 0.0;   // its runs' median CPU time
            obs::ScheduleReport max_t_sched;
            for (std::size_t ti = 0; ti < threads.size(); ++ti) {
                const int t = threads[ti];
                LegalizerOptions opts;
                opts.seed = profile.seed;
                opts.num_threads = t;
                opts.mll.exact_evaluation = exact;
                const std::string where = design_name + " [" + mode_name +
                                          "] t=" + std::to_string(t);
                RunMetrics m;
                std::vector<double> times;
                std::vector<double> cpu_times;
                std::vector<obs::ScheduleReport> scheds;
                for (int r = 0; r < kRunsPerConfig; ++r) {
                    timeline = std::make_unique<obs::Timeline>(
                        obs::Timeline::default_max_lanes(),
                        kEventsPerCell * num_cells);
                    {
                        obs::ScopedTimeline install(*timeline);
                        m = run_legalization(db, grid, opts, where);
                    }
                    const auto pos = snapshot(db);
                    if (reference_pos.empty()) {
                        reference_pos = pos;
                        // Once per design and mode: the serial reference
                        // loop must land every cell on the same site.
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
                    if (pos != reference_pos) {
                        std::cerr << "FATAL: run " << r + 1 << " of " << where
                                  << " diverged from the serial placement\n";
                        return 1;
                    }
                    const obs::ScheduleReport sched =
                        obs::derive_schedule_report(*timeline, t);
                    // The schedule summary must count the whole run, or
                    // its shares describe a sample.
                    const std::size_t attempts =
                        m.stats.direct_placements + m.stats.mll_successes +
                        m.stats.mll_failures;
                    if (sched.dropped_events != 0 ||
                        sched.waves_total != m.stats.waves ||
                        sched.tasks_total != attempts) {
                        std::cerr << "FATAL: incomplete timeline (run "
                                  << r + 1 << " of " << where
                                  << "): dropped_events="
                                  << sched.dropped_events
                                  << " waves_total=" << sched.waves_total
                                  << " of " << m.stats.waves
                                  << " tasks_total=" << sched.tasks_total
                                  << " of " << attempts << "\n";
                        return 1;
                    }
                    times.push_back(m.stats.runtime_s);
                    cpu_times.push_back(m.cpu_s);
                    scheds.push_back(sched);
                }
                // The median run is the middle of the runs ordered by time.
                std::vector<std::size_t> by_time(times.size());
                std::iota(by_time.begin(), by_time.end(), std::size_t{0});
                std::sort(by_time.begin(), by_time.end(),
                          [&](std::size_t a, std::size_t b) {
                              return times[a] < times[b];
                          });
                const std::size_t median_run = by_time[by_time.size() / 2];
                const double median_s = times[median_run];
                const double min_s = times[by_time.front()];
                const double max_s = times[by_time.back()];
                if (ti == 0) {
                    baseline_time = median_s;
                    std::sort(cpu_times.begin(), cpu_times.end());
                    baseline_cpu = cpu_times[cpu_times.size() / 2];
                }
                const double speedup =
                    median_s > 0.0 ? baseline_time / median_s : 0.0;
                const obs::ScheduleReport& sched = scheds[median_run];
                std::cerr << where << ": " << format_fixed(median_s, 3)
                          << "s (" << format_fixed(min_s, 3) << "-"
                          << format_fixed(max_s, 3) << ", "
                          << kRunsPerConfig << " runs) speedup="
                          << format_fixed(speedup, 2)
                          << " util="
                          << format_fixed(sched.pool_utilization, 2)
                          << " commit="
                          << format_fixed(sched.commit_serial_share, 2)
                          << "\n";

                // Sanity guard: no configuration can legitimately beat
                // linear scaling. A speedup above the thread count (plus
                // timer-noise slack) means the baseline, the clock, or the
                // recorded environment is lying — exactly the class of bug
                // behind a hardware_threads:1 machine reporting 7 pool
                // workers. The baseline is the t=1 runs' CPU time (the
                // pool's helpers sleep there), which other load on the
                // host does not inflate as it does their wall clock.
                const double cpu_speedup =
                    median_s > 0.0 ? baseline_cpu / median_s : 0.0;
                if (cpu_speedup > static_cast<double>(t) + 0.25) {
                    std::cerr << "FATAL: t=1 CPU time over the median time "
                              << format_fixed(cpu_speedup, 2)
                              << " exceeds the thread count " << t
                              << " (design=" << design_name
                              << ") - baseline or clock is broken\n";
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
                Json legalize_s = Json::object();
                legalize_s.set("median", Json::num(median_s));
                legalize_s.set("min", Json::num(min_s));
                legalize_s.set("max", Json::num(max_s));
                run.set("legalize_s", std::move(legalize_s));
                run.set("direct", Json::num(m.stats.direct_placements));
                run.set("mll_successes", Json::num(m.stats.mll_successes));
                run.set("mll_failures", Json::num(m.stats.mll_failures));
                run.set("points_evaluated",
                        Json::num(m.stats.mll_points_evaluated));
                run.set("waves", Json::num(m.stats.waves));
                run.set("conflict_requeues",
                        Json::num(m.stats.conflict_requeues));
                run.set("disp_avg_sites", Json::num(m.disp_avg_sites));
                run.set("dhpwl_pct", Json::num(m.dhpwl_pct));
                run.set("speedup_vs_t1", Json::num(speedup));
                run.set("identical_to_serial", Json::boolean(true));
                run.set("schedule", obs::schedule_summary_json(sched));
                runs.push(std::move(run));
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
    root.set("runs_per_config",
             Json::num(static_cast<std::int64_t>(kRunsPerConfig)));
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
    if (trace_path != nullptr) {
        if (!obs::write_chrome_trace(trace_path, *timeline,
                                     "bench_parallel " + designs.back())) {
            return 1;
        }
        std::cerr << "wrote " << trace_path << "\n";
    }
    return 0;
}
