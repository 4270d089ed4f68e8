#pragma once
/// \file timeline.hpp
/// Wall-clock per-thread execution timeline for the parallel pipeline —
/// the second half of the two-tracer observability model (DESIGN.md §2d).
///
/// The serial Tracer (obs/trace.hpp) is single-threaded by contract, so
/// it records *nothing* about what worker threads do during the
/// region-parallel plan phase. The Timeline fills that hole: every thread
/// (orchestrator and pool workers alike) appends span and instant events
/// to its own fixed-capacity ring buffer — no locks, no shared cursors,
/// no contention — and a post-run merge produces one deterministic event
/// sequence from which scheduling metrics (pool utilization, stragglers,
/// commit-serialization share) and a Chrome-trace/Perfetto export are
/// derived.
///
/// Determinism contract (the two-tracer split):
///   * The Tracer stays the deterministic surface: tick-clock run reports
///     remain byte-identical whether or not a Timeline is installed —
///     timeline data lives in a separate report section that is emitted
///     only under the wall clock and is excluded from goldens.
///   * Timeline timestamps are wall-clock *by design* and never feed any
///     deterministic output. What IS deterministic is the merged event
///     *sequence*: events carry a stable `{wave, slot, task}` key assigned
///     by the (deterministic) wave schedule, and `merge()` orders by that key
///     — never by timestamp, lane, or registration order — so two runs
///     with arbitrarily different thread interleavings merge to the same
///     ordered sequence of (name, kind, key) tuples.
///
/// Thread-safety: `span`/`instant` may be called concurrently from any
/// number of threads. Each thread writes only its own lane (lane indices
/// are handed out by an atomic counter and cached thread-locally), so the
/// hot path is: one thread-local lookup, one ring-slot store. `merge()`
/// and the derived reports must only run after the workers have quiesced
/// (the thread pool's join provides the happens-before edge).
///
/// Overflow: a lane that outgrows its fixed capacity wraps around and
/// overwrites its oldest events; nothing is silently truncated — the
/// overwritten count is surfaced as `dropped_events()` and lands in the
/// run report (whose `timeline` block then reads truncated) and the trace
/// metadata.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace mrlg::obs {

/// Stable, scheduling-independent identity of a timeline event. For
/// pipeline events: `wave` is the global wave sequence number (1-based,
/// monotonically increasing across rounds), `slot` the event's position
/// within the wave's batch, `task` the planned cell's queue index.
/// Orchestrator-level events use slot/task 0.
struct TimelineKey {
    std::uint32_t wave = 0;
    std::uint32_t slot = 0;
    std::uint32_t task = 0;
};

enum class TimelineEventKind : std::uint8_t {
    kSpan,     ///< [begin_ns, end_ns) duration event.
    kInstant,  ///< Point event (end_ns == begin_ns).
};

struct TimelineEvent {
    /// Static-storage name (string literals only — events do not own or
    /// copy their names; the ring stays trivially copyable).
    const char* name = "";
    TimelineEventKind kind = TimelineEventKind::kSpan;
    TimelineKey key;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
};

class Timeline {
public:
    static constexpr std::size_t kDefaultLaneCapacity = 1u << 15;

    /// One lane per thread that can record: the global pool's helper
    /// threads plus the calling thread.
    static std::size_t default_max_lanes();

    /// `max_lanes` bounds the number of distinct recording threads;
    /// `lane_capacity` is the per-lane ring size in events. Both are
    /// fixed at construction — recording never allocates.
    explicit Timeline(std::size_t max_lanes = default_max_lanes(),
                      std::size_t lane_capacity = kDefaultLaneCapacity);
    Timeline(const Timeline&) = delete;
    Timeline& operator=(const Timeline&) = delete;
    ~Timeline();

    /// Wall-clock nanoseconds (monotonic). Reading time is the caller's
    /// job so a span's two reads bracket exactly the caller's scope.
    std::uint64_t now_ns() const;

    /// Records a completed span / an instant on the calling thread's
    /// lane. Lock-free; safe from any thread.
    void span(const char* name, TimelineKey key, std::uint64_t begin_ns,
              std::uint64_t end_ns);
    void instant(const char* name, TimelineKey key);

    /// Lanes that have recorded at least one event.
    std::size_t num_lanes() const;
    std::size_t lane_capacity() const { return lane_capacity_; }
    /// Total events lost: ring overwrites plus events from threads beyond
    /// `max_lanes`. Reported, never silent (docs/REPORT.md `timeline`).
    std::uint64_t dropped_events() const;
    /// Total events currently retained across all lanes.
    std::size_t num_events() const;

    struct MergedEvent {
        TimelineEvent ev;
        std::uint32_t lane = 0;  ///< Recording lane (display only — NOT
                                 ///< part of the deterministic order).
    };

    /// Deterministic post-run merge: all retained events ordered by
    /// (key.wave, key.slot, key.task, name, kind); events with equal
    /// sort keys keep their single-lane recording order (equal-key events
    /// are only ever produced by one thread — a task runs on exactly one
    /// worker). Call only after recording threads have quiesced.
    std::vector<MergedEvent> merge() const;

private:
    struct Lane;
    /// Registers the calling thread on first use (one lane per thread per
    /// timeline; a thread alternating between two live timelines burns a
    /// fresh lane per switch — not a supported pattern). Returns nullptr
    /// once every lane is taken.
    Lane* lane_for_this_thread();
    void record(const TimelineEvent& ev);

    const std::size_t lane_capacity_;
    const std::uint64_t id_;  ///< Process-unique, for thread-local caching.
    std::vector<Lane> lanes_;
    std::atomic<std::uint32_t> next_lane_{0};
    /// Events from threads that arrived after every lane was taken.
    std::atomic<std::uint64_t> unlaned_dropped_{0};
};

/// Ambient timeline consulted by the instrumented orchestration code;
/// nullptr (the default) disables recording at the cost of one atomic
/// load per probe. Unlike the ambient Tracer this pointer is an atomic:
/// worker threads may legitimately read it.
Timeline* current_timeline();
void set_current_timeline(Timeline* timeline);

/// RAII install/restore of the ambient timeline.
class ScopedTimeline {
public:
    explicit ScopedTimeline(Timeline& timeline) : prev_(current_timeline()) {
        set_current_timeline(&timeline);
    }
    ~ScopedTimeline() { set_current_timeline(prev_); }
    ScopedTimeline(const ScopedTimeline&) = delete;
    ScopedTimeline& operator=(const ScopedTimeline&) = delete;

private:
    Timeline* prev_;
};

/// RAII span against an explicit timeline pointer (callers hoist the
/// `current_timeline()` load out of their hot loops). A null timeline
/// makes construction and destruction a single branch — the disabled
/// path must stay unmeasurable.
class TimelineSpan {
public:
    TimelineSpan(Timeline* timeline, const char* name, TimelineKey key)
        : timeline_(timeline), name_(name), key_(key),
          begin_ns_(timeline != nullptr ? timeline->now_ns() : 0) {}
    ~TimelineSpan() {
        if (timeline_ != nullptr) {
            timeline_->span(name_, key_, begin_ns_, timeline_->now_ns());
        }
    }
    TimelineSpan(const TimelineSpan&) = delete;
    TimelineSpan& operator=(const TimelineSpan&) = delete;

private:
    Timeline* timeline_;
    const char* name_;
    TimelineKey key_;
    std::uint64_t begin_ns_;
};

// ---------------------------------------------------------------------------
// Derived scheduling metrics (the run report's `timeline` block and the
// bench_parallel schedule summaries and bottleneck ranking).

/// Whole-run schedule report. Shares (utilization, straggler, commit
/// and partition serialization) are in [0, 1]; see docs/REPORT.md for
/// the exact definitions. Per-wave detail is not kept here — it lives in
/// the Chrome trace export (`--trace`).
struct ScheduleReport {
    int threads = 0;  ///< Thread budget the shares are computed against.
    std::size_t lanes = 0;
    std::uint64_t dropped_events = 0;
    std::size_t waves_total = 0;

    // Aggregates over all waves.
    std::uint64_t wave_wall_ns = 0;
    /// Σ "partition" spans: one per round, outside its waves.
    std::uint64_t partition_ns = 0;
    std::uint64_t plan_ns = 0;
    std::uint64_t commit_ns = 0;
    std::uint64_t task_sum_ns = 0;
    std::uint64_t critical_path_ns = 0;  ///< Σ per-wave task_max.
    std::size_t tasks_total = 0;

    /// Σ task time / (Σ plan wall × threads): fraction of the pool's
    /// plan-phase capacity doing useful work.
    double pool_utilization = 0.0;
    /// Σ max(0, task_max − ceil(task_sum/threads)) / Σ plan wall: plan
    /// wall time attributable to the longest task overhanging a perfectly
    /// balanced schedule.
    double straggler_share = 0.0;
    /// Σ commit / (Σ wave wall + Σ partition): serial commit's share of
    /// pipeline time.
    double commit_serial_share = 0.0;
    /// Σ partition / (Σ wave wall + Σ partition): the serial schedule
    /// pass's share of pipeline time.
    double partition_share = 0.0;

    Histogram task_us;        ///< Per-task plan durations (µs).
    Histogram wave_idle_pct;  ///< Per-wave pool idle percentage (0-100).
};

/// Folds the timeline's merged events into aggregate scheduling
/// metrics. `threads` is the configured thread budget of the
/// run (used for utilization/straggler math; <= 0 is treated as 1).
ScheduleReport derive_schedule_report(const Timeline& timeline, int threads);

/// Serializes a ScheduleReport's scalar fields (bench_parallel's per-run
/// `schedule` block): everything but the histograms.
Json schedule_summary_json(const ScheduleReport& report);

/// The summary plus the `task_us` and `wave_idle_pct` histograms and a
/// `truncated` flag (the run report's `timeline` block). When the
/// timeline dropped events, `truncated` is true and every field derived
/// from merged events is null; `threads`, `lanes` and `dropped_events`
/// keep their values.
Json schedule_report_json(const ScheduleReport& report);

// ---------------------------------------------------------------------------
// Chrome trace-event / Perfetto export.

/// Serializes the timeline as a Chrome trace-event JSON object
/// (https://ui.perfetto.dev loads it directly): one `pid`, one `tid` per
/// lane, `ph:"X"` complete events for spans, `ph:"i"` instants, and
/// metadata records naming the process and threads. Timestamps are
/// microseconds relative to the earliest retained event.
Json chrome_trace_json(const Timeline& timeline,
                       const std::string& process_name);

/// chrome_trace_json + write_json_file.
bool write_chrome_trace(const std::string& path, const Timeline& timeline,
                        const std::string& process_name);

}  // namespace mrlg::obs
