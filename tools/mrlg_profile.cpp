/// mrlg_profile — thread-sweep scheduling profiler for the region-parallel
/// pipeline. Legalizes one synthetic design of the parallel_* family at a
/// sweep of thread counts with a wall-clock Timeline installed, derives
/// the per-wave scheduling metrics (pool utilization, straggler share,
/// commit-serialization share — obs/timeline.hpp), and emits a bottleneck
/// report that *names the top scaling limiter*: the machine itself, the
/// serial commit phase, the serial partition phase, task imbalance, or
/// waves too thin to feed the pool.
///
/// Usage:
///   mrlg_profile [options]
///     --design CSV    parallel_s | parallel_m | parallel_l, comma
///                     separated for a multi-design baseline (default
///                     parallel_l)
///     --threads CSV   thread counts to sweep      (default "1,2,4,8")
///     --mode M        approx | exact | both       (default approx)
///     --scale F       cell-count scale factor     (default 1.0)
///     --seed N        generator seed offset       (default 0)
///     --json PATH     write the JSON bottleneck trajectory to PATH
///     --trace PATH    write the LAST run's Chrome trace-event / Perfetto
///                     JSON timeline to PATH
///     --quiet         suppress the per-run progress lines
/// Exit code: 0 on success, 1 when any run fails to legalize, 2 on usage
/// errors.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "db/segment.hpp"
#include "io/benchmark_gen.hpp"
#include "io/profiles.hpp"
#include "legalize/legalizer.hpp"
#include "obs/timeline.hpp"
#include "util/str.hpp"
#include "util/thread_pool.hpp"

using namespace mrlg;
using obs::Json;

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
    std::cerr << "usage: mrlg_profile [--design parallel_s|parallel_m|"
                 "parallel_l]\n"
                 "       [--threads CSV] [--mode approx|exact|both]\n"
                 "       [--scale F] [--seed N] [--json PATH]\n"
                 "       [--trace PATH] [--quiet]\n";
    return 2;
}

std::vector<int> parse_threads(const char* csv) {
    std::vector<int> out;
    const std::string s = csv != nullptr ? csv : "1,2,4,8";
    std::size_t pos = 0;
    while (pos < s.size()) {
        const std::size_t comma = s.find(',', pos);
        const int v = std::atoi(s.substr(pos, comma - pos).c_str());
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

void unplace_all(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
}

std::vector<std::string> parse_designs(const char* csv) {
    std::vector<std::string> out;
    const std::string s = csv != nullptr ? csv : "parallel_l";
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string tok = s.substr(pos, comma - pos);
        if (!tok.empty()) {
            out.push_back(tok);
        }
        if (comma == std::string::npos) {
            break;
        }
        pos = comma + 1;
    }
    return out;
}

/// One run of the sweep: its wall time and derived schedule metrics.
struct ProfiledRun {
    bool exact = false;
    int threads = 0;
    double wall_s = 0.0;
    double speedup = 0.0;
    obs::ScheduleReport sched;
};

/// One candidate scaling limiter with a comparable score in [0, 1].
struct Limiter {
    const char* name;
    double score;
    std::string detail;
};

/// Ranks the candidate limiters for the run at the sweep's highest thread
/// count. Scores are shares of run time (or of the requested parallelism)
/// claimed by each serial/imbalance mechanism, so they are directly
/// comparable; the largest one is the knob to turn next.
std::vector<Limiter> rank_limiters(const ProfiledRun& run,
                                   const ThreadPoolConfig& tp) {
    std::vector<Limiter> out;
    const obs::ScheduleReport& s = run.sched;
    const int want = run.threads;

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
    const std::vector<std::string> designs =
        parse_designs(find_arg(argc, argv, "--design"));
    const std::vector<int> threads =
        parse_threads(find_arg(argc, argv, "--threads"));
    const char* mode_arg = find_arg(argc, argv, "--mode");
    const std::string mode = mode_arg != nullptr ? mode_arg : "approx";
    double scale = 1.0;
    if (const char* s = find_arg(argc, argv, "--scale")) {
        scale = std::atof(s);
    }
    int seed_offset = 0;
    if (const char* s = find_arg(argc, argv, "--seed")) {
        seed_offset = std::atoi(s);
    }
    const bool quiet = has_flag(argc, argv, "--quiet");

    std::vector<bool> modes;
    if (mode == "approx") {
        modes = {false};
    } else if (mode == "exact") {
        modes = {true};
    } else if (mode == "both") {
        modes = {false, true};
    } else {
        return usage();
    }

    // The last run's timeline outlives the sweeps for --trace; the
    // overall top limiter (by score, across designs and modes) is the
    // report's headline.
    std::unique_ptr<obs::Timeline> timeline;
    Limiter top{"", -1.0, ""};
    Json profiles = Json::array();

    for (const std::string& design : designs) {
        GenProfile profile;
        if (!parallel_profile(design, scale, seed_offset, profile)) {
            std::cerr << "unknown design '" << design
                      << "' (expected one of:";
            for (const std::string& n : parallel_profile_names()) {
                std::cerr << " " << n;
            }
            std::cerr << ")\n";
            return usage();
        }

        GenResult gen = generate_benchmark(profile);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        if (!quiet) {
            std::cerr << "mrlg_profile " << design << ": " << db.num_cells()
                      << " cells, scale " << format_fixed(scale, 2) << "\n";
        }

        std::vector<ProfiledRun> runs;
        for (const bool exact : modes) {
            double baseline_s = 0.0;
            for (const int t : threads) {
                unplace_all(db, grid);
                timeline = std::make_unique<obs::Timeline>();
                obs::ScopedTimeline install(*timeline);

                LegalizerOptions opts;
                opts.seed = profile.seed;
                opts.num_threads = t;
                opts.mll.exact_evaluation = exact;
                const LegalizerStats stats =
                    legalize_placement(db, grid, opts);
                if (!stats.success) {
                    std::cerr << "FATAL: legalization failed (design="
                              << design << " threads=" << t << ")\n";
                    return 1;
                }

                ProfiledRun run;
                run.exact = exact;
                run.threads = t;
                run.wall_s = stats.runtime_s;
                if (t == threads.front()) {
                    baseline_s = stats.runtime_s;
                }
                run.speedup = stats.runtime_s > 0.0
                                  ? baseline_s / stats.runtime_s
                                  : 0.0;
                run.sched = obs::derive_schedule_report(*timeline, t);
                if (!quiet) {
                    std::cerr
                        << "  [" << (exact ? "exact" : "approx")
                        << "] t=" << t << ": "
                        << format_fixed(run.wall_s, 3) << "s"
                        << " speedup=" << format_fixed(run.speedup, 2)
                        << " util="
                        << format_fixed(run.sched.pool_utilization, 2)
                        << " straggler="
                        << format_fixed(run.sched.straggler_share, 2)
                        << " commit="
                        << format_fixed(run.sched.commit_serial_share, 2)
                        << "\n";
                }
                runs.push_back(std::move(run));
            }
        }

        Json dj = Json::object();
        dj.set("design", Json::str(design));
        dj.set("cells", Json::num(db.num_cells()));
        Json runs_json = Json::array();
        for (const ProfiledRun& r : runs) {
            Json j = Json::object();
            j.set("mode", Json::str(r.exact ? "exact" : "approx"));
            j.set("threads",
                  Json::num(static_cast<std::int64_t>(r.threads)));
            j.set("wall_s", Json::num(r.wall_s));
            j.set("speedup_vs_t1", Json::num(r.speedup));
            j.set("schedule", obs::schedule_report_json(r.sched));
            runs_json.push(std::move(j));
        }
        dj.set("runs", std::move(runs_json));

        // Bottleneck report: ranked limiters of the highest-thread run
        // of each mode.
        const ThreadPoolConfig tp_now = ThreadPool::config();
        Json bottlenecks = Json::array();
        for (const bool exact : modes) {
            const ProfiledRun* last = nullptr;
            for (const ProfiledRun& r : runs) {
                if (r.exact == exact &&
                    (last == nullptr || r.threads > last->threads)) {
                    last = &r;
                }
            }
            if (last == nullptr) {
                continue;
            }
            const std::vector<Limiter> ranked =
                rank_limiters(*last, tp_now);
            Json j = Json::object();
            j.set("mode", Json::str(exact ? "exact" : "approx"));
            j.set("threads",
                  Json::num(static_cast<std::int64_t>(last->threads)));
            j.set("top_limiter", Json::str(ranked.front().name));
            j.set("ranked", limiters_json(ranked));
            bottlenecks.push(std::move(j));
            if (ranked.front().score > top.score) {
                top = ranked.front();
            }
            std::cout << "bottleneck report [" << design << ", "
                      << (exact ? "exact" : "approx")
                      << ", t=" << last->threads << "]:\n";
            int rank = 1;
            for (const Limiter& l : ranked) {
                std::cout << "  " << rank++ << ". " << l.name << " ("
                          << format_fixed(l.score, 2) << "): " << l.detail
                          << "\n";
            }
        }
        dj.set("bottlenecks", std::move(bottlenecks));
        profiles.push(std::move(dj));
    }

    // Captured after the sweeps: pool_workers_active is real by now.
    const ThreadPoolConfig tp = ThreadPool::config();

    Json root = Json::object();
    root.set("bench", Json::str("mrlg_profile"));
    root.set("scale", Json::num(scale));
    Json env = Json::object();
    env.set("hardware_threads", Json::num(tp.hardware_threads));
    env.set("default_threads", Json::num(tp.default_threads));
    env.set("pool_workers", Json::num(tp.pool_workers));
    env.set("pool_workers_active", Json::num(tp.pool_workers_active));
    env.set("mrlg_threads_env", Json::boolean(tp.env_override));
    root.set("environment", std::move(env));
    root.set("profiles", std::move(profiles));
    if (top.score >= 0.0) {
        root.set("top_limiter", Json::str(top.name));
        std::cout << "top scaling limiter: " << top.name << " - "
                  << top.detail << "\n";
    }

    if (const char* path = find_arg(argc, argv, "--json")) {
        if (!obs::write_json_file(path, root)) {
            return 2;
        }
        std::cerr << "wrote " << path << "\n";
    }
    if (const char* path = find_arg(argc, argv, "--trace")) {
        if (timeline == nullptr ||
            !obs::write_chrome_trace(path, *timeline,
                                     "mrlg_profile " + designs.back())) {
            return 2;
        }
        std::cerr << "wrote " << path << "\n";
    }
    return 0;
}
