#include "obs/timeline.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace mrlg::obs {

namespace {

/// Ambient timeline. Atomic (unlike the Tracer's plain global) because the
/// install/read sides may legitimately be different threads; recording
/// code still hoists one load per scope (TimelineSpan takes the pointer).
std::atomic<Timeline*> g_current_timeline{nullptr};

/// Process-unique timeline ids back the thread-local lane cache: a cache
/// entry is valid only for the timeline id it was created against, so a
/// destroyed timeline's address being reused can never alias a lane.
std::atomic<std::uint64_t> g_next_timeline_id{1};

struct LaneCache {
    std::uint64_t timeline_id = 0;
    std::uint32_t lane = 0;
    bool unlaned = false;  ///< Thread arrived after every lane was taken.
};
thread_local LaneCache t_lane_cache;

/// Per-wave schedule accounting, aggregated from the merged events.
struct WaveSchedule {
    std::uint32_t wave = 0;
    std::uint64_t wall_ns = 0;       ///< "wave" span (orchestrator).
    std::uint64_t partition_ns = 0;  ///< "partition" span keyed to it.
    std::uint64_t plan_ns = 0;       ///< "plan" span (the fan-out window).
    std::uint64_t commit_ns = 0;     ///< "commit" span (serial applies).
    std::uint64_t task_sum_ns = 0;   ///< Σ "plan.task" durations.
    std::uint64_t task_max_ns = 0;   ///< Longest "plan.task" (critical path).
    std::uint32_t tasks = 0;         ///< "plan.task" spans in this wave.
};

}  // namespace

Timeline* current_timeline() {
    return g_current_timeline.load(std::memory_order_acquire);
}

void set_current_timeline(Timeline* timeline) {
    g_current_timeline.store(timeline, std::memory_order_release);
}

/// One thread's ring. Single writer (the owning thread); readers only run
/// after the writers have quiesced. alignas keeps neighbouring lanes off a
/// shared cache line.
struct alignas(64) Timeline::Lane {
    explicit Lane(std::size_t capacity) : ring(capacity) {}
    std::vector<TimelineEvent> ring;
    /// Total events ever written; the ring holds the last
    /// min(count, ring.size()) of them.
    std::uint64_t count = 0;
};

std::size_t Timeline::default_max_lanes() {
    // The pool may have been built under a different MRLG_THREADS than
    // the one config() reads now, so cover whichever is larger.
    const ThreadPoolConfig tp = ThreadPool::config();
    return static_cast<std::size_t>(
               std::max(tp.pool_workers, tp.pool_workers_active)) +
           1;
}

Timeline::Timeline(std::size_t max_lanes, std::size_t lane_capacity)
    : lane_capacity_(std::max<std::size_t>(1, lane_capacity)),
      id_(g_next_timeline_id.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t n = std::max<std::size_t>(1, max_lanes);
    lanes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        lanes_.emplace_back(lane_capacity_);
    }
}

Timeline::~Timeline() = default;

std::uint64_t Timeline::now_ns() const {
    // Wall-clock by design: timeline data never feeds deterministic
    // output (see the header's two-tracer contract).
    const auto now =
        std::chrono::steady_clock::now();  // mrlg-lint: allow(wall-clock)
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count());
}

Timeline::Lane* Timeline::lane_for_this_thread() {
    LaneCache& cache = t_lane_cache;
    if (cache.timeline_id != id_) {
        const std::uint32_t lane =
            next_lane_.fetch_add(1, std::memory_order_relaxed);
        cache.timeline_id = id_;
        cache.lane = lane;
        cache.unlaned = lane >= lanes_.size();
    }
    return cache.unlaned ? nullptr : &lanes_[cache.lane];
}

void Timeline::record(const TimelineEvent& ev) {
    Lane* lane = lane_for_this_thread();
    if (lane == nullptr) {
        unlaned_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    lane->ring[lane->count % lane->ring.size()] = ev;
    ++lane->count;
}

void Timeline::span(const char* name, TimelineKey key, std::uint64_t begin_ns,
                    std::uint64_t end_ns) {
    record({name, key, begin_ns, end_ns});
}

std::size_t Timeline::num_lanes() const {
    return std::min<std::size_t>(
        next_lane_.load(std::memory_order_relaxed), lanes_.size());
}

std::uint64_t Timeline::dropped_events() const {
    std::uint64_t dropped = unlaned_dropped_.load(std::memory_order_relaxed);
    for (const Lane& lane : lanes_) {
        if (lane.count > lane.ring.size()) {
            dropped += lane.count - lane.ring.size();
        }
    }
    return dropped;
}

std::size_t Timeline::num_events() const {
    std::size_t total = 0;
    for (const Lane& lane : lanes_) {
        total += static_cast<std::size_t>(
            std::min<std::uint64_t>(lane.count, lane.ring.size()));
    }
    return total;
}

std::vector<Timeline::MergedEvent> Timeline::merge() const {
    std::vector<MergedEvent> out;
    out.reserve(num_events());
    for (std::uint32_t li = 0; li < lanes_.size(); ++li) {
        const Lane& lane = lanes_[li];
        const std::uint64_t cap = lane.ring.size();
        const std::uint64_t n = std::min(lane.count, cap);
        // Oldest retained event first, so equal-key events keep their
        // single-lane recording order through the stable sort below.
        const std::uint64_t start = lane.count > cap ? lane.count % cap : 0;
        for (std::uint64_t k = 0; k < n; ++k) {
            out.push_back({lane.ring[(start + k) % cap], li});
        }
    }
    std::stable_sort(
        out.begin(), out.end(),
        [](const MergedEvent& a, const MergedEvent& b) {
            const TimelineKey& ka = a.ev.key;
            const TimelineKey& kb = b.ev.key;
            if (ka.wave != kb.wave) {
                return ka.wave < kb.wave;
            }
            if (ka.slot != kb.slot) {
                return ka.slot < kb.slot;
            }
            if (ka.task != kb.task) {
                return ka.task < kb.task;
            }
            return std::strcmp(a.ev.name, b.ev.name) < 0;
        });
    return out;
}

// ---------------------------------------------------------------------------
// Derived scheduling metrics.

ScheduleReport derive_schedule_report(const Timeline& timeline, int threads) {
    ScheduleReport report;
    report.threads = std::max(1, threads);
    report.lanes = timeline.num_lanes();
    report.dropped_events = timeline.dropped_events();

    // The merge is wave-major, so per-wave accounting is one sequential
    // grouping pass. Wave 0 is the "no wave" key (run-level events) and is
    // excluded from schedule math.
    std::vector<WaveSchedule> waves;
    for (const Timeline::MergedEvent& me : timeline.merge()) {
        const TimelineEvent& ev = me.ev;
        if (ev.key.wave == 0) {
            continue;
        }
        if (waves.empty() || waves.back().wave != ev.key.wave) {
            waves.push_back(WaveSchedule{});
            waves.back().wave = ev.key.wave;
        }
        WaveSchedule& w = waves.back();
        const std::uint64_t dur =
            ev.end_ns > ev.begin_ns ? ev.end_ns - ev.begin_ns : 0;
        if (std::strcmp(ev.name, "wave") == 0) {
            w.wall_ns += dur;
        } else if (std::strcmp(ev.name, "partition") == 0) {
            w.partition_ns += dur;
        } else if (std::strcmp(ev.name, "plan") == 0) {
            w.plan_ns += dur;
        } else if (std::strcmp(ev.name, "commit") == 0) {
            w.commit_ns += dur;
        } else if (std::strcmp(ev.name, "plan.task") == 0) {
            w.task_sum_ns += dur;
            w.task_max_ns = std::max(w.task_max_ns, dur);
            ++w.tasks;
            report.task_us.observe(static_cast<double>(dur) * 1e-3);
        }
    }

    const double t = static_cast<double>(report.threads);
    double straggler_ns = 0.0;
    for (const WaveSchedule& w : waves) {
        report.wave_wall_ns += w.wall_ns;
        report.partition_ns += w.partition_ns;
        report.plan_ns += w.plan_ns;
        report.commit_ns += w.commit_ns;
        report.task_sum_ns += w.task_sum_ns;
        report.critical_path_ns += w.task_max_ns;
        report.tasks_total += w.tasks;
        if (w.plan_ns > 0) {
            const double plan = static_cast<double>(w.plan_ns);
            const double busy = static_cast<double>(w.task_sum_ns);
            const double idle_pct =
                std::clamp(100.0 * (1.0 - busy / (plan * t)), 0.0, 100.0);
            report.wave_idle_pct.observe(idle_pct);
            const double balanced = busy / t;
            straggler_ns += std::max(
                0.0, static_cast<double>(w.task_max_ns) - balanced);
        }
    }
    report.waves_total = waves.size();

    if (report.plan_ns > 0) {
        const double plan = static_cast<double>(report.plan_ns);
        report.pool_utilization = std::clamp(
            static_cast<double>(report.task_sum_ns) / (plan * t), 0.0, 1.0);
        report.straggler_share = std::clamp(straggler_ns / plan, 0.0, 1.0);
    }
    // The round's partition span sits outside its waves, so pipeline
    // time is wave wall plus partition.
    const std::uint64_t pipeline_ns =
        report.wave_wall_ns + report.partition_ns;
    if (pipeline_ns > 0) {
        const double wall = static_cast<double>(pipeline_ns);
        report.commit_serial_share = std::clamp(
            static_cast<double>(report.commit_ns) / wall, 0.0, 1.0);
        report.partition_share = std::clamp(
            static_cast<double>(report.partition_ns) / wall, 0.0, 1.0);
    }
    return report;
}

Json schedule_summary_json(const ScheduleReport& report) {
    Json j = Json::object();
    j.set("threads", Json::num(report.threads));
    j.set("lanes", Json::num(report.lanes));
    j.set("dropped_events", Json::num(report.dropped_events));
    j.set("waves_total", Json::num(report.waves_total));
    j.set("tasks_total", Json::num(report.tasks_total));
    j.set("wave_wall_ns", Json::num(report.wave_wall_ns));
    j.set("partition_ns", Json::num(report.partition_ns));
    j.set("plan_ns", Json::num(report.plan_ns));
    j.set("commit_ns", Json::num(report.commit_ns));
    j.set("task_sum_ns", Json::num(report.task_sum_ns));
    j.set("critical_path_ns", Json::num(report.critical_path_ns));
    j.set("pool_utilization", Json::num(report.pool_utilization));
    j.set("straggler_share", Json::num(report.straggler_share));
    j.set("commit_serial_share", Json::num(report.commit_serial_share));
    j.set("partition_share", Json::num(report.partition_share));
    return j;
}

Json schedule_report_json(const ScheduleReport& report) {
    Json j = schedule_summary_json(report);
    j.set("task_us", histogram_json(report.task_us));
    j.set("wave_idle_pct", histogram_json(report.wave_idle_pct));
    // A lane that wrapped lost events the merge needed, so every figure
    // derived from merged events is a partial sample: null, never a
    // number that reads as measured.
    const bool truncated = report.dropped_events > 0;
    j.set("truncated", Json::boolean(truncated));
    if (truncated) {
        for (const char* key :
             {"waves_total", "tasks_total", "wave_wall_ns", "partition_ns",
              "plan_ns", "commit_ns", "task_sum_ns", "critical_path_ns",
              "pool_utilization", "straggler_share", "commit_serial_share",
              "partition_share", "task_us", "wave_idle_pct"}) {
            j.set(key, Json());
        }
    }
    return j;
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

Json chrome_trace_json(const Timeline& timeline,
                       const std::string& process_name) {
    const std::vector<Timeline::MergedEvent> merged = timeline.merge();

    std::uint64_t t0 = 0;
    bool have_t0 = false;
    for (const Timeline::MergedEvent& me : merged) {
        if (!have_t0 || me.ev.begin_ns < t0) {
            t0 = me.ev.begin_ns;
            have_t0 = true;
        }
    }

    Json events = Json::array();

    Json process_meta = Json::object();
    process_meta.set("name", Json::str("process_name"));
    process_meta.set("ph", Json::str("M"));
    process_meta.set("pid", Json::num(1));
    process_meta.set("tid", Json::num(0));
    Json process_args = Json::object();
    process_args.set("name", Json::str(process_name));
    process_meta.set("args", std::move(process_args));
    events.push(std::move(process_meta));

    for (std::size_t lane = 0; lane < timeline.num_lanes(); ++lane) {
        Json thread_meta = Json::object();
        thread_meta.set("name", Json::str("thread_name"));
        thread_meta.set("ph", Json::str("M"));
        thread_meta.set("pid", Json::num(1));
        thread_meta.set("tid", Json::num(lane + 1));
        Json thread_args = Json::object();
        // Lane 0 is whichever thread recorded first — in the legalizer
        // pipeline that is always the orchestrator.
        thread_args.set("name",
                        Json::str(lane == 0
                                      ? std::string("orchestrator")
                                      : "worker-" + std::to_string(lane)));
        thread_meta.set("args", std::move(thread_args));
        events.push(std::move(thread_meta));
    }

    for (const Timeline::MergedEvent& me : merged) {
        const TimelineEvent& ev = me.ev;
        Json ej = Json::object();
        ej.set("name", Json::str(ev.name));
        ej.set("ph", Json::str("X"));
        ej.set("ts", Json::num(static_cast<double>(ev.begin_ns - t0) * 1e-3));
        const std::uint64_t dur =
            ev.end_ns > ev.begin_ns ? ev.end_ns - ev.begin_ns : 0;
        ej.set("dur", Json::num(static_cast<double>(dur) * 1e-3));
        ej.set("pid", Json::num(1));
        ej.set("tid", Json::num(static_cast<std::size_t>(me.lane) + 1));
        Json args = Json::object();
        args.set("wave", Json::num(static_cast<std::size_t>(ev.key.wave)));
        args.set("slot", Json::num(static_cast<std::size_t>(ev.key.slot)));
        args.set("task", Json::num(static_cast<std::size_t>(ev.key.task)));
        ej.set("args", std::move(args));
        events.push(std::move(ej));
    }

    Json root = Json::object();
    root.set("traceEvents", std::move(events));
    root.set("displayTimeUnit", Json::str("ms"));
    Json other = Json::object();
    other.set("dropped_events", Json::num(timeline.dropped_events()));
    other.set("lanes", Json::num(timeline.num_lanes()));
    root.set("otherData", std::move(other));
    return root;
}

bool write_chrome_trace(const std::string& path, const Timeline& timeline,
                        const std::string& process_name) {
    return write_json_file(path, chrome_trace_json(timeline, process_name));
}

}  // namespace mrlg::obs
