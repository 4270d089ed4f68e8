#include "legalize/legalizer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>

#include "check/audit.hpp"
#include "check/audit_plan.hpp"
#include "db/write_cap.hpp"
#include "eval/legality.hpp"
#include "legalize/greedy.hpp"
#include "legalize/pipeline.hpp"
#include "legalize/ripup.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace mrlg {

namespace {

/// The calling thread's MLL scratch. Plans and the commit's rip-up
/// re-insertions share it, so each thread keeps one set of high-water
/// buffers.
MllScratch& thread_mll_scratch() {
    thread_local MllScratch scratch;
    return scratch;
}

}  // namespace

Point nearest_aligned_position(const Database& db, CellId cell_id, double px,
                               double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const SiteCoord max_y =
        std::max<SiteCoord>(0, fp.num_rows() - cell.height());

    SiteCoord y = static_cast<SiteCoord>(std::lround(py));
    y = std::clamp<SiteCoord>(y, 0, max_y);
    if (check_rail && !rail_compatible(y, cell.height(), cell.rail_phase())) {
        // Even-height cell on the wrong parity: pick the closer adjacent
        // row of correct parity.
        const SiteCoord up = y + 1 <= max_y ? y + 1 : y - 1;
        const SiteCoord down = y - 1 >= 0 ? y - 1 : y + 1;
        const double du = std::abs(static_cast<double>(up) - py);
        const double dd = std::abs(static_cast<double>(down) - py);
        y = du <= dd ? up : down;
        y = std::clamp<SiteCoord>(y, 0, max_y);
        if (!rail_compatible(y, cell.height(), cell.rail_phase())) {
            // Die edge forced us to the wrong parity; step inward.
            y = std::clamp<SiteCoord>(y + (y == 0 ? 1 : -1), 0, max_y);
        }
    }

    // Clamp x into the intersection of the rows the cell will span.
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + cell.height() && fp.has_row(r); ++r) {
        const Row& row = fp.row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi,
                        static_cast<SiteCoord>(row.x + row.num_sites -
                                               cell.width()));
    }
    SiteCoord x = static_cast<SiteCoord>(std::lround(px));
    if (x_lo <= x_hi) {
        x = std::clamp(x, x_lo, x_hi);
    }
    return Point{x, y};
}

LegalizerStats legalize_placement(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts) {
    MRLG_OBS_PHASE("legalize");
    // Serial orchestration entry: everything below may mutate db/grid
    // except the plan-phase fan-out, which deliberately does NOT
    // re-assert the capability (db/write_cap.hpp).
    GridWriteScope grid_write;
    Timer timer;
    LegalizerStats stats;
    Rng rng(opts.seed);

    // Wall-clock execution timeline (two-tracer model, obs/timeline.hpp):
    // hoisted once so worker lambdas receive the pointer by capture and
    // never read ambient state. nullptr (the default) keeps every probe a
    // single branch.
    obs::Timeline* const timeline = obs::current_timeline();

    // The run's one set of MLL options, for plans and rip-up alike.
    MllOptions mll_opts = opts.mll;
    if (mll_opts.audit < opts.audit) {
        mll_opts.audit = opts.audit;
    }
    RipupOptions ripup_opts;
    ripup_opts.mll = mll_opts;

    // Invariant-audit hook (MRLG_VALIDATE / LegalizerOptions::audit):
    // structural grid audit at phase boundaries, and after every commit
    // at kFull. Failures throw AssertionError out of the legalizer.
    const AuditLevel audit = opts.audit;
    auto audit_grid = [&](AuditLevel at_least) {
        if (audit >= at_least) {
            ++stats.audits_run;
            enforce(audit_segment_grid(db, grid, AuditLevel::kCheap,
                                       mll_opts.check_rail));
        }
    };

    // Footprint padding of the region-parallel pipeline must cover any
    // movable cell a plan might read (see compute_attempt_footprint);
    // fixed cells are frozen into the segments and never appear in the
    // lists, so the movable maximum suffices.
    SiteCoord max_cell_width = 1;
    std::vector<CellId> unplaced;
    {
        MRLG_OBS_PHASE("setup");
        // The cells to place are queued in input order and only they are
        // ordered. Every order is a stable sort, and a stable sort
        // commutes with filtering, so the queue equals sorting every
        // movable cell and keeping the unplaced ones. One pass reads each
        // cell once: it takes the width maximum, unplaces under
        // unplace_first and queues. The queue is reserved once at the cell
        // count, the most it can hold, since growing it by doubling
        // measurably raised the legalizer's peak memory.
        unplaced.reserve(db.num_cells());
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            const CellId c{static_cast<CellId::underlying>(i)};
            const Cell& cell = db.cell(c);
            if (cell.fixed()) {
                continue;
            }
            ++stats.num_cells;
            max_cell_width = std::max(max_cell_width, cell.width());
            if (cell.placed() && opts.unplace_first) {
                grid.remove(db, c);
            }
            if (!cell.placed()) {
                unplaced.push_back(c);
            }
        }
        if (opts.order == LegalizerOptions::Order::kMultiRowFirst) {
            std::stable_sort(unplaced.begin(), unplaced.end(),
                             [&](CellId a, CellId b) {
                                 return db.cell(a).height() >
                                        db.cell(b).height();
                             });
        }
        audit_grid(AuditLevel::kCheap);  // post-setup pre-condition
    }

    // ---- plan/commit round state -------------------------------------------
    // Ledger claims are clamped to the die: no cell or segment exists
    // outside it, so footprint slices out there cannot carry conflicts.
    const Rect die = db.floorplan().die();
    const Span die_x{die.x, static_cast<SiteCoord>(die.x + die.w)};
    FootprintLedger ledger;
    std::vector<PlanTask> tasks;
    // Wave-local plans: plans[i] holds the plan of the wave's i-th task
    // from the wave's plan phase to its commit. Grown to the widest wave
    // so far.
    std::vector<MllPlan> plans;
    std::vector<std::uint32_t> levels;    // per task, 1-based wave in round
    std::vector<std::size_t> wave_begin;  // wave k: order[begin[k], begin[k+1])
    std::vector<std::size_t> order;       // task indices, wave-major

    auto task_footprint = [](const PlanTask& t) {
        return PlannedFootprint{t.cell.value(), t.footprint.rows,
                                t.footprint.x};
    };

    // One retry round run as plan/commit waves (pipeline.hpp documents the
    // serial-equivalence argument). Returns the cells the round failed to
    // place, in queue order. In a round that enables the free-slot
    // fallback or rip-up every task is a barrier: a failed plan may then
    // write anywhere on the die, so each task plans and commits alone, in
    // queue order.
    auto run_pipelined_round = [&](int round, bool allow_fallback,
                                   bool allow_ripup,
                                   const std::vector<CellId>& queue) {
        assert_grid_write_cap();  // commit waves run on this serial thread
        const bool barrier = allow_fallback || allow_ripup;
        const std::size_t points_before = stats.mll_points_evaluated;
        // Build the round's tasks in queue order, drawing the round's
        // jitter as Algorithm 1 does: two uniforms per cell, queue order.
        tasks.clear();
        tasks.reserve(queue.size());
        for (const CellId c : queue) {
            const Cell& cell = db.cell(c);
            PlanTask t;
            t.cell = c;
            t.px = cell.gp_x();
            t.py = cell.gp_y();
            if (round > 1) {
                const SiteCoord range_x =
                    static_cast<SiteCoord>(opts.mll.rx) * (round - 1);
                const SiteCoord range_y =
                    static_cast<SiteCoord>(opts.mll.ry) * (round - 1);
                t.px +=
                    static_cast<double>(rng.uniform(-range_x, range_x));
                t.py +=
                    static_cast<double>(rng.uniform(-range_y, range_y));
            }
            const Point p = nearest_aligned_position(db, c, t.px, t.py,
                                                     mll_opts.check_rail);
            t.fitted = Rect{p.x, p.y, cell.width(), cell.height()};
            t.rail_ok =
                !mll_opts.check_rail ||
                rail_compatible(p.y, cell.height(), cell.rail_phase());
            t.footprint = compute_attempt_footprint(
                mll_window(cell, t.px, t.py, mll_opts), t.fitted,
                max_cell_width);
            tasks.push_back(std::move(t));
        }
        // The round's wave schedule, computed once in queue order
        // (pipeline.hpp): a task's level is its wave, and a counting sort
        // lists each wave's tasks in queue order. A barrier task's level
        // is its queue position + 1, so its waves hold one task each.
        std::uint32_t num_waves = 0;
        {
            MRLG_OBS_PHASE("partition");
            obs::TimelineSpan partition_span(
                timeline, "partition",
                {static_cast<std::uint32_t>(stats.waves + 1), 0, 0});
            ledger.reset(static_cast<std::size_t>(db.floorplan().num_rows()),
                         die_x);
            levels.resize(tasks.size());
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                levels[i] = barrier ? static_cast<std::uint32_t>(i + 1)
                                    : ledger.claim(tasks[i].footprint);
                num_waves = std::max(num_waves, levels[i]);
                // Deferred past waves 1..level-1, one requeue per wave.
                stats.conflict_requeues += levels[i] - 1;
            }
            wave_begin.assign(num_waves + 2, 0);
            for (const std::uint32_t level : levels) {
                ++wave_begin[level + 1];
            }
            for (std::size_t k = 1; k < wave_begin.size(); ++k) {
                wave_begin[k] += wave_begin[k - 1];
            }
            std::vector<std::size_t> cursor = wave_begin;
            order.resize(tasks.size());
            for (std::size_t i = 0; i < tasks.size(); ++i) {
                order[cursor[levels[i]]++] = i;
            }
        }

        for (std::uint32_t level = 1; level <= num_waves; ++level) {
            MRLG_OBS_PHASE("wave");
            ++stats.waves;
            // Timeline keys: the global wave sequence number is the stable
            // major key; slot/task come from the (deterministic) schedule.
            const std::uint32_t wave_id =
                static_cast<std::uint32_t>(stats.waves);
            obs::TimelineSpan wave_span(timeline, "wave", {wave_id, 0, 0});
            const std::span<const std::size_t> batch(
                order.data() + wave_begin[level],
                wave_begin[level + 1] - wave_begin[level]);
            MRLG_OBS_OBSERVE("legalize.batch_size",
                             static_cast<double>(batch.size()));
            if (plans.size() < batch.size()) {
                plans.resize(batch.size());
            }

            {
                MRLG_OBS_PHASE("plan");
                // Workers execute instrumented MLL code; the ambient
                // tracer is not thread-safe, so it pauses for the whole
                // fan-out — at every thread count, keeping the emitted
                // metrics configuration-independent.
                obs::TracerPause pause;
                obs::TimelineSpan plan_span(timeline, "plan",
                                            {wave_id, 0, 0});
                // Const views of the shared state: overload resolution
                // must pick the const accessors (db.cell) here — the
                // non-const ones require GridWriteCap, which the plan
                // fan-out deliberately does not hold.
                const Database& plan_db = db;
                const SegmentGrid& plan_grid = grid;
                parallel_for(
                    batch.size(), /*grain=*/1, opts.num_threads,
                    [&](std::size_t begin, std::size_t end) {
                        MllScratch& plan_scratch = thread_mll_scratch();
                        for (std::size_t i = begin; i < end; ++i) {
                            // The wall-clock Timeline (NOT the paused
                            // Tracer) is the one observer workers may
                            // write: lock-free per-thread lanes.
                            obs::TimelineSpan task_span(
                                timeline, "plan.task",
                                {wave_id, static_cast<std::uint32_t>(i),
                                 static_cast<std::uint32_t>(batch[i])});
                            PlanTask& t = tasks[batch[i]];
                            const Cell& cell = plan_db.cell(t.cell);
                            t.direct =
                                t.rail_ok &&
                                plan_grid.placeable(t.fitted, CellId{},
                                                    cell.region());
                            if (!t.direct) {
                                plans[i] = mll_plan(plan_db, plan_grid,
                                                    t.cell, t.px, t.py,
                                                    mll_opts, &plan_scratch);
                                t.num_points = plans[i].num_points;
                            }
                        }
                    });
            }

            if (audit >= AuditLevel::kCheap) {
                // The schedule promised these footprints are pairwise
                // disjoint; re-derive that from scratch before trusting
                // the plans (check/audit_plan.hpp).
                std::vector<PlannedFootprint> fps;
                fps.reserve(batch.size());
                for (const std::size_t idx : batch) {
                    fps.push_back(task_footprint(tasks[idx]));
                }
                ++stats.audits_run;
                enforce(audit_plan_batch(fps));
            }

            {
                MRLG_OBS_PHASE("commit");
                obs::TimelineSpan commit_span(timeline, "commit",
                                              {wave_id, 0, 0});
                for (std::size_t slot = 0; slot < batch.size(); ++slot) {
                    const std::size_t idx = batch[slot];
                    obs::TimelineSpan commit_task_span(
                        timeline, "commit.task",
                        {wave_id, static_cast<std::uint32_t>(slot),
                         static_cast<std::uint32_t>(idx)});
                    PlanTask& t = tasks[idx];
                    const Cell& cell = db.cell(t.cell);
                    if (t.direct) {
                        // A taken slot means the schedule let two
                        // overlapping footprints share a wave: fail
                        // loudly, never requeue (mll_commit does the same
                        // for a stale plan).
                        MRLG_ASSERT(
                            grid.placeable(t.fitted, CellId{},
                                           cell.region()),
                            "region-parallel direct slot of cell " +
                                std::to_string(t.cell.value()) +
                                " went stale before its commit in wave " +
                                std::to_string(wave_id));
                        grid.place(db, t.cell, t.fitted.x, t.fitted.y);
                        ++stats.direct_placements;
                        t.state = PlanTask::State::kPlaced;
                        audit_grid(AuditLevel::kFull);
                        continue;
                    }
                    const MllPlan& plan = plans[slot];
                    count_attempt(plan);  // replayed: plan ran paused
                    stats.mll_points_evaluated += plan.num_points;
                    stats.audits_run += plan.audits_run;
                    if (plan.success()) {
                        const MllPlan& r = mll_commit(db, grid, t.cell, plan);
                        ++stats.mll_successes;
                        MRLG_OBS_OBSERVE("legalize.mll_real_cost_um",
                                         r.real_cost_um);
                        if (audit >= AuditLevel::kFull && !barrier) {
                            // Commit writes must stay inside the claimed
                            // footprint (the other half of the pipeline's
                            // correctness argument). A barrier task's
                            // footprint is the whole die.
                            std::vector<Rect> writes;
                            writes.push_back(Rect{r.x, r.y, cell.width(),
                                                  cell.height()});
                            for (const MllPlan::Move& m : plan.moves) {
                                const Cell& mc = db.cell(m.id);
                                const SiteCoord lo =
                                    std::min(m.old_x, m.new_x);
                                const SiteCoord hi = static_cast<SiteCoord>(
                                    std::max(m.old_x, m.new_x) +
                                    mc.width());
                                writes.push_back(Rect{lo, mc.y(),
                                                      static_cast<SiteCoord>(
                                                          hi - lo),
                                                      mc.height()});
                            }
                            ++stats.audits_run;
                            enforce(audit_plan_writes(task_footprint(t),
                                                      writes));
                        }
                        t.state = PlanTask::State::kPlaced;
                        audit_grid(AuditLevel::kFull);
                        continue;
                    }
                    ++stats.mll_failures;
                    // Tail handling, around the *original* gp position (not
                    // the jittered one): snap to the nearest free slot,
                    // then rip up single-row cells.
                    const std::optional<Point> free_slot =
                        allow_fallback
                            ? find_nearest_free_position(
                                  db, grid, t.cell, cell.gp_x(), cell.gp_y(),
                                  mll_opts.check_rail)
                            : std::nullopt;
                    if (free_slot) {
                        grid.place(db, t.cell, free_slot->x, free_slot->y);
                        ++stats.fallback_placements;
                    } else if (allow_ripup &&
                               ripup_place(db, grid, t.cell, cell.gp_x(),
                                           cell.gp_y(), ripup_opts,
                                           &thread_mll_scratch())
                                   .success) {
                        ++stats.ripup_placements;
                    } else {
                        t.state = PlanTask::State::kFailed;
                        continue;
                    }
                    t.state = PlanTask::State::kPlaced;
                    audit_grid(AuditLevel::kFull);  // post-placement
                }
            }
        }

        // Round-level exactness: every insertion point the final plans
        // evaluated — and nothing else — entered the stats.
        std::size_t expected_points = 0;
        std::vector<CellId> still;
        for (const PlanTask& t : tasks) {
            expected_points += t.num_points;
            if (t.state == PlanTask::State::kFailed) {
                still.push_back(t.cell);
            } else {
                MRLG_DCHECK(t.state == PlanTask::State::kPlaced,
                            "round left a task unresolved");
            }
        }
        MRLG_ASSERT(stats.mll_points_evaluated ==
                        points_before + expected_points,
                    "region-parallel pipeline lost insertion-point "
                    "accounting");
        return still;
    };

    // Algorithm 1: round 1 tries every cell at its input position (lines
    // 2-7), later rounds at growing random offsets (lines 9-17).
    for (int round = 1; !unplaced.empty() && round <= opts.max_rounds;
         ++round) {
        MRLG_OBS_PHASE("round");
        stats.rounds = round;
        const bool allow_fallback = round >= opts.free_slot_fallback_round;
        const bool allow_ripup =
            opts.enable_ripup &&
            round >= opts.free_slot_fallback_round + 2;
        unplaced =
            run_pipelined_round(round, allow_fallback, allow_ripup, unplaced);
        audit_grid(AuditLevel::kCheap);  // post-round invariants
    }

    if (audit >= AuditLevel::kCheap) {
        // Final audit at the configured depth: kFull adds the independent
        // eval/legality overlap sweep and the blockage intrusion check.
        MRLG_OBS_PHASE("final_audit");
        ++stats.audits_run;
        enforce(audit_placement(db, grid, audit, mll_opts.check_rail));
    }

    stats.unplaced = unplaced.size();
    stats.success = unplaced.empty();
    stats.runtime_s = timer.elapsed_s();

    // Mirror the run's stats into the ambient tracer so a run report's
    // counter block is complete even when the caller drops the stats.
    MRLG_OBS_COUNT("legalize.runs", 1);
    MRLG_OBS_COUNT("legalize.cells", stats.num_cells);
    MRLG_OBS_COUNT("legalize.rounds", stats.rounds);
    MRLG_OBS_COUNT("legalize.direct_placements", stats.direct_placements);
    MRLG_OBS_COUNT("legalize.mll_successes", stats.mll_successes);
    MRLG_OBS_COUNT("legalize.mll_failures", stats.mll_failures);
    MRLG_OBS_COUNT("legalize.fallback_placements",
                   stats.fallback_placements);
    MRLG_OBS_COUNT("legalize.ripup_placements", stats.ripup_placements);
    MRLG_OBS_COUNT("legalize.unplaced", stats.unplaced);
    MRLG_OBS_COUNT("legalize.points_evaluated", stats.mll_points_evaluated);
    MRLG_OBS_COUNT("legalize.audits_run", stats.audits_run);
    MRLG_OBS_COUNT("legalize.waves", stats.waves);
    MRLG_OBS_COUNT("legalize.conflict_requeues", stats.conflict_requeues);
    if (!stats.success) {
        MRLG_LOG(kWarn) << "legalization left " << stats.unplaced
                        << " cells unplaced after " << stats.rounds
                        << " rounds";
    }
    return stats;
}

}  // namespace mrlg
