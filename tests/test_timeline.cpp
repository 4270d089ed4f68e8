/// \file test_timeline.cpp
/// The wall-clock Timeline's core contracts (obs/timeline.hpp):
///
///   * the post-run merge is ordered by the stable {wave, slot, task} key
///     — NOT by timestamp, lane, or thread arrival — so arbitrarily
///     different thread interleavings (forced here through the pool's
///     test-only chunk hook) merge to the identical event sequence;
///   * ring overflow and lane exhaustion are *reported* as
///     dropped_events, never silent, and a run report whose timeline
///     dropped events marks its `timeline` block truncated;
///   * the derived schedule metrics match their documented formulas;
///   * deterministic (tick-clock) run reports stay byte-identical whether
///     or not a timeline is installed — the golden-tier guarantee;
///   * the Chrome trace export has the trace-event shape Perfetto loads.
///
/// Lives in the `parallel` ctest tier: the TSan CI stage re-runs these
/// tests with real pool workers racing the lock-free lanes.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "db/segment.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "obs/run_report.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mrlg::test {
namespace {

using obs::ScheduleReport;
using obs::Timeline;
using obs::TimelineKey;

// ---------------------------------------------------------------------------
// Merge ordering and overflow accounting.

TEST(Timeline, MergeOrdersByStableKeyNotByTimestamp) {
    Timeline tl;
    // Recorded deliberately out of key order, with timestamps *reversed*
    // relative to the key order: the merge must follow the key.
    tl.span("plan.task", {2, 0, 7}, 900, 950);
    tl.span("queue", {1, 1, 4}, 550, 560);
    tl.span("plan.task", {1, 1, 4}, 500, 600);
    tl.span("plan.task", {1, 0, 9}, 700, 800);
    tl.span("wave", {1, 0, 0}, 100, 200);

    const std::vector<Timeline::MergedEvent> merged = tl.merge();
    ASSERT_EQ(merged.size(), 5u);
    // (1,0,0) wave < (1,0,9) task < (1,1,4) "plan.task" < (1,1,4) "queue"
    // < (2,0,7): by key, then by name.
    EXPECT_STREQ(merged[0].ev.name, "wave");
    EXPECT_EQ(merged[1].ev.key.task, 9u);
    EXPECT_EQ(merged[2].ev.key.task, 4u);
    EXPECT_STREQ(merged[2].ev.name, "plan.task");
    EXPECT_STREQ(merged[3].ev.name, "queue");
    EXPECT_EQ(merged[4].ev.key.wave, 2u);
    EXPECT_EQ(tl.dropped_events(), 0u);
}

TEST(Timeline, RingOverflowIsCountedNeverSilent) {
    Timeline tl(/*max_lanes=*/2, /*lane_capacity=*/8);
    for (std::uint32_t i = 0; i < 100; ++i) {
        tl.span("plan.task", {1, i, i}, i, i + 1);
    }
    // The ring keeps the newest 8 events and reports the other 92.
    EXPECT_EQ(tl.num_events(), 8u);
    EXPECT_EQ(tl.dropped_events(), 92u);
    EXPECT_EQ(tl.merge().size(), 8u);
    // The drop count flows into the derived report (and from there into
    // the run report / trace metadata).
    const ScheduleReport report = obs::derive_schedule_report(tl, 2);
    EXPECT_EQ(report.dropped_events, 92u);
    EXPECT_EQ(report.tasks_total, 8u);
}

TEST(Timeline, ThreadsBeyondMaxLanesAreCountedAsDropped) {
    Timeline tl(/*max_lanes=*/1, /*lane_capacity=*/64);
    tl.span("wave", {1, 0, 0}, 0, 10);  // this thread takes the only lane
    std::thread other([&tl] {
        for (std::uint32_t i = 0; i < 5; ++i) {
            tl.span("plan.task", {1, i, i}, i, i + 1);
        }
    });
    other.join();
    EXPECT_EQ(tl.num_lanes(), 1u);
    EXPECT_EQ(tl.num_events(), 1u);
    EXPECT_EQ(tl.dropped_events(), 5u);
}

// ---------------------------------------------------------------------------
// Derived schedule metrics: the documented formulas, on synthetic spans.

TEST(Timeline, ScheduleMetricsMatchTheirDefinitions) {
    Timeline tl;
    // The round's partition [0,100] runs once, before its first wave, and
    // is keyed to that wave. Wave 1: wall [100,1000]; plan 700ns, commit
    // 200ns; two plan tasks of 300ns and 600ns.
    tl.span("partition", {1, 0, 0}, 0, 100);
    tl.span("wave", {1, 0, 0}, 100, 1000);
    tl.span("plan", {1, 0, 0}, 100, 800);
    tl.span("plan.task", {1, 0, 3}, 100, 400);
    tl.span("plan.task", {1, 1, 5}, 100, 700);
    tl.span("commit", {1, 0, 0}, 800, 1000);
    // Wave 2: wall [1000,1500]; plan 400ns with one 400ns task (critical
    // path accumulates per-wave maxima: 600 + 400).
    tl.span("wave", {2, 0, 0}, 1000, 1500);
    tl.span("plan", {2, 0, 0}, 1000, 1400);
    tl.span("plan.task", {2, 0, 8}, 1000, 1400);
    tl.span("commit", {2, 0, 0}, 1400, 1500);

    const ScheduleReport r = obs::derive_schedule_report(tl, /*threads=*/2);
    EXPECT_EQ(r.threads, 2);
    EXPECT_EQ(r.waves_total, 2u);
    EXPECT_EQ(r.wave_wall_ns, 1400u);
    EXPECT_EQ(r.plan_ns, 1100u);
    EXPECT_EQ(r.commit_ns, 300u);
    EXPECT_EQ(r.partition_ns, 100u);
    EXPECT_EQ(r.task_sum_ns, 1300u);
    EXPECT_EQ(r.critical_path_ns, 1000u);  // 600 + 400
    EXPECT_EQ(r.tasks_total, 3u);
    // pool_utilization = task_sum / (plan × threads) = 1300 / 2200.
    EXPECT_NEAR(r.pool_utilization, 1300.0 / 2200.0, 1e-12);
    // straggler = Σ max(0, task_max − task_sum/t) / Σ plan
    //           = ((600 − 450) + (400 − 200)) / 1100.
    EXPECT_NEAR(r.straggler_share, 350.0 / 1100.0, 1e-12);
    // Serial shares are of pipeline time: wave wall + partition = 1500.
    EXPECT_NEAR(r.commit_serial_share, 300.0 / 1500.0, 1e-12);
    EXPECT_NEAR(r.partition_share, 100.0 / 1500.0, 1e-12);
    EXPECT_EQ(r.task_us.count, 3u);
    EXPECT_EQ(r.wave_idle_pct.count, 2u);
}

// ---------------------------------------------------------------------------
// Scheduling independence: different forced interleavings, one merge.

using Signature = std::vector<
    std::tuple<std::string, std::uint32_t, std::uint32_t, std::uint32_t>>;

Signature signature(const Timeline& tl) {
    Signature sig;
    for (const Timeline::MergedEvent& me : tl.merge()) {
        sig.emplace_back(me.ev.name, me.ev.key.wave, me.ev.key.slot,
                         me.ev.key.task);
    }
    return sig;
}

void stall_even_chunks(std::size_t chunk) {
    if (chunk % 2 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
}

void stall_odd_chunks(std::size_t chunk) {
    if (chunk % 2 == 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
}

/// Clears the pool's test hook even when an assertion fails out.
struct HookGuard {
    explicit HookGuard(ThreadPool::ChunkHook hook) {
        ThreadPool::set_chunk_hook_for_test(hook);
    }
    ~HookGuard() { ThreadPool::set_chunk_hook_for_test(nullptr); }
};

Signature legalize_with_timeline(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
    Timeline tl;
    obs::ScopedTimeline install(tl);
    LegalizerOptions opts;
    opts.seed = 5;
    opts.num_threads = 8;
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    EXPECT_TRUE(stats.success);
    EXPECT_EQ(tl.dropped_events(), 0u);
    return signature(tl);
}

TEST(Timeline, LegalizerMergeIdenticalUnderForcedInterleavings) {
    GenProfile p;
    p.num_single = 300;
    p.num_double = 30;
    p.density = 0.55;
    p.seed = 11;
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);

    const Signature baseline = legalize_with_timeline(gen.db, grid);
    EXPECT_FALSE(baseline.empty());
    {
        HookGuard hook(&stall_even_chunks);
        EXPECT_EQ(legalize_with_timeline(gen.db, grid), baseline)
            << "stalling even chunks changed the merged sequence";
    }
    {
        HookGuard hook(&stall_odd_chunks);
        EXPECT_EQ(legalize_with_timeline(gen.db, grid), baseline)
            << "stalling odd chunks changed the merged sequence";
    }
}

// ---------------------------------------------------------------------------
// Completeness: the schedule counts equal the legalizer's own counts.

/// One wave per LegalizerStats::waves and one plan task per direct,
/// successful or failed attempt — the cross-check bench_parallel makes on
/// every run. Checked on a one-round run and on a six-round run whose
/// barrier round places cells through the free-slot fallback.
TEST(Timeline, ScheduleCountsEqualLegalizerStats) {
    GenProfile p;
    p.num_single = 300;
    p.num_double = 30;
    p.density = 0.8;
    p.seed = 11;
    for (const bool tail : {false, true}) {
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        LegalizerOptions opts;
        opts.seed = 5;
        opts.num_threads = 4;
        if (tail) {
            // Windows too small for most cells: the run reaches the
            // free-slot fallback round.
            opts.mll.rx = 1;
            opts.mll.ry = 0;
        }
        Timeline tl;
        LegalizerStats stats;
        {
            obs::ScopedTimeline install(tl);
            stats = legalize_placement(gen.db, grid, opts);
        }
        ASSERT_TRUE(stats.success);
        if (tail) {
            EXPECT_GE(stats.rounds, opts.free_slot_fallback_round);
            EXPECT_GT(stats.fallback_placements, 0u);
        } else {
            EXPECT_EQ(stats.rounds, 1);
        }
        const ScheduleReport r = obs::derive_schedule_report(tl, 4);
        EXPECT_EQ(r.dropped_events, 0u);
        EXPECT_EQ(r.waves_total, stats.waves);
        EXPECT_EQ(r.tasks_total, stats.direct_placements +
                                     stats.mll_successes +
                                     stats.mll_failures);
    }
}

// ---------------------------------------------------------------------------
// Report integration: the two-tracer split.

TEST(Timeline, DeterministicReportIsByteIdenticalWithTimelineInstalled) {
    GenProfile p;
    p.num_single = 120;
    p.num_double = 12;
    p.density = 0.5;
    p.seed = 7;

    auto report_bytes = [&](bool with_timeline) {
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        obs::TickClock ticks;
        obs::Tracer tracer(&ticks);
        obs::ScopedTracer install(tracer);
        Timeline tl;
        std::unique_ptr<obs::ScopedTimeline> install_tl;
        if (with_timeline) {
            install_tl = std::make_unique<obs::ScopedTimeline>(tl);
        }
        LegalizerOptions opts;
        opts.seed = 5;
            opts.num_threads = 4;
        const LegalizerStats stats = legalize_placement(gen.db, grid, opts);
        obs::RunReportSpec spec;
        spec.tool = "test_timeline";
        spec.design = "tick";
        spec.db = &gen.db;
        spec.grid = &grid;
        spec.options = &opts;
        spec.stats = &stats;
        spec.tracer = &tracer;
        spec.timeline = with_timeline ? &tl : nullptr;
        if (with_timeline) {
            EXPECT_GT(tl.num_events(), 0u);
        }
        return obs::make_run_report(spec).dump();
    };

    // Run WITHOUT a timeline first so the with-timeline run cannot leak
    // state into it; tick-clock reports must not know the difference.
    const std::string without = report_bytes(false);
    const std::string with = report_bytes(true);
    EXPECT_EQ(with, without);
    EXPECT_EQ(with.find("\"timeline\""), std::string::npos);
    EXPECT_EQ(with.find("\"memory\""), std::string::npos);
}

TEST(Timeline, WallClockReportCarriesTimelineAndMemoryBlocks) {
    GenProfile p;
    p.num_single = 120;
    p.num_double = 12;
    p.density = 0.5;
    p.seed = 7;
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    obs::WallClock wall;
    obs::Tracer tracer(&wall);
    obs::ScopedTracer install(tracer);
    Timeline tl;
    obs::ScopedTimeline install_tl(tl);
    LegalizerOptions opts;
    opts.seed = 5;
    const LegalizerStats stats = legalize_placement(gen.db, grid, opts);
    obs::RunReportSpec spec;
    spec.tool = "test_timeline";
    spec.design = "wall";
    spec.db = &gen.db;
    spec.grid = &grid;
    spec.options = &opts;
    spec.stats = &stats;
    spec.tracer = &tracer;
    const std::string dump = obs::make_run_report(spec).dump();
    // spec.timeline is null: the report must fall back to the ambient
    // timeline installed above.
    EXPECT_NE(dump.find("\"timeline\""), std::string::npos);
    EXPECT_NE(dump.find("\"pool_utilization\""), std::string::npos);
    EXPECT_NE(dump.find("\"commit_serial_share\""), std::string::npos);
    // Per-wave detail lives in the trace export, not the report.
    EXPECT_EQ(dump.find("\"wall_ns\""), std::string::npos);
    EXPECT_NE(dump.find("\"memory\""), std::string::npos);
    EXPECT_NE(dump.find("\"peak_rss_bytes\""), std::string::npos);
    EXPECT_NE(dump.find("\"pool_workers_active\""), std::string::npos);
}

/// A wrapped ring must not pass for a measurement: under 8-event lanes a
/// small legalization drops events, so the run report's timeline block
/// reads truncated and nulls every figure derived from merged events.
/// Under default lanes nothing drops and the figures are numbers.
TEST(Timeline, RunReportMarksATruncatedTimeline) {
    GenProfile p;
    p.num_single = 120;
    p.num_double = 12;
    p.density = 0.5;
    p.seed = 7;
    for (const std::size_t capacity :
         {std::size_t{8}, Timeline::kDefaultLaneCapacity}) {
        const bool truncated = capacity == 8;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        Timeline tl(Timeline::default_max_lanes(), capacity);
        {
            obs::ScopedTimeline install(tl);
            ASSERT_TRUE(legalize_placement(gen.db, grid).success);
        }
        EXPECT_EQ(tl.dropped_events() > 0, truncated);
        obs::RunReportSpec spec;
        spec.tool = "test_timeline";
        spec.design = "lanes";
        spec.timeline = &tl;
        const std::string dump = obs::make_run_report(spec).dump();
        EXPECT_NE(dump.find(truncated ? "\"truncated\": true"
                                      : "\"truncated\": false"),
                  std::string::npos);
        for (const char* field :
             {"\"waves_total\": null", "\"pool_utilization\": null",
              "\"commit_serial_share\": null", "\"task_us\": null"}) {
            EXPECT_EQ(dump.find(field) != std::string::npos, truncated)
                << field;
        }
        EXPECT_NE(dump.find("\"dropped_events\": " +
                            std::to_string(tl.dropped_events()) + ","),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Chrome trace export shape.

TEST(Timeline, ChromeTraceHasTraceEventShape) {
    Timeline tl;
    tl.span("wave", {1, 0, 0}, 1000, 5000);
    tl.span("plan.task", {1, 0, 2}, 2000, 3000);
    const std::string dump = obs::chrome_trace_json(tl, "unit").dump();
    EXPECT_NE(dump.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(dump.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(dump.find("\"process_name\""), std::string::npos);
    EXPECT_NE(dump.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(dump.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(dump.find("\"dropped_events\""), std::string::npos);
    // Timestamps are relative to the earliest event: 1000ns → ts 0.
    EXPECT_NE(dump.find("\"ts\": 0"), std::string::npos);
}

}  // namespace
}  // namespace mrlg::test
