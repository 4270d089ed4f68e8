/// \file test_region_parallel.cpp
/// Determinism and unit coverage for the plan/commit pipeline
/// (legalize/pipeline.hpp): the legalizer must be byte-identical to the
/// serial cell-at-a-time loop of Algorithm 1 (qa::reference_legalize) on
/// every design, at every thread count, fallback and rip-up rounds
/// included — that is its entire correctness contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "eval/legality.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/local_region.hpp"
#include "legalize/pipeline.hpp"
#include "obs/timeline.hpp"
#include "qa/generators.hpp"
#include "qa/oracles.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace mrlg::test {
namespace {

// ---------------------------------------------------------------------------
// Footprint unit tests.

TEST(AttemptFootprint, HullsWindowAndFittedWithPad) {
    const Rect window{10, 2, 20, 4};   // x [10,30), rows [2,6)
    const Rect fitted{32, 1, 4, 2};    // x [32,36), rows [1,3)
    const AttemptFootprint fp =
        compute_attempt_footprint(window, fitted, /*max_cell_width=*/5);
    EXPECT_EQ(fp.rows.lo, 1);
    EXPECT_EQ(fp.rows.hi, 6);
    EXPECT_EQ(fp.x.lo, 10 - 4);  // pad = max_cell_width - 1
    EXPECT_EQ(fp.x.hi, 36 + 4);
}

TEST(AttemptFootprint, OverlapNeedsBothAxes) {
    AttemptFootprint a;
    a.rows = Span{0, 2};
    a.x = Span{0, 10};
    AttemptFootprint b;
    b.rows = Span{2, 4};  // touching rows only — half-open, disjoint
    b.x = Span{0, 10};
    EXPECT_FALSE(a.overlaps(b));
    b.rows = Span{1, 3};
    b.x = Span{10, 20};  // overlapping rows, touching x — disjoint
    EXPECT_FALSE(a.overlaps(b));
    b.x = Span{9, 20};
    EXPECT_TRUE(a.overlaps(b));
}

// ---------------------------------------------------------------------------
// Ledger / level-schedule unit tests.

AttemptFootprint fp(SiteCoord row_lo, SiteCoord row_hi, SiteCoord x_lo,
                    SiteCoord x_hi) {
    AttemptFootprint f;
    f.rows = Span{row_lo, row_hi};
    f.x = Span{x_lo, x_hi};
    return f;
}

TEST(FootprintLedger, LevelsStackOnOverlapAndClampToTheDie) {
    FootprintLedger ledger;
    ledger.reset(8, Span{0, 1024});
    EXPECT_EQ(ledger.claim(fp(0, 2, 16, 30)), 1u);  // empty ledger
    EXPECT_EQ(ledger.claim(fp(1, 3, 24, 48)), 2u);  // real overlap
    EXPECT_EQ(ledger.claim(fp(3, 5, 24, 48)), 1u);  // rows disjoint
    // The ledger is bucket-conservative (kBucketSites granularity): a
    // footprint sharing a bucket with a claim stacks on it even when the
    // exact spans only touch. That delays a cell by a wave; never wrong.
    EXPECT_EQ(ledger.claim(fp(0, 1, 30, 32)), 2u);
    // From the next bucket boundary onward it is clean again.
    EXPECT_EQ(ledger.claim(fp(0, 1, 32, 40)), 1u);
    // A level is 1 + the *highest* level under the footprint, whichever
    // of its rows holds it.
    EXPECT_EQ(ledger.claim(fp(0, 3, 28, 34)), 3u);
    EXPECT_EQ(ledger.claim(fp(0, 3, 40, 48)), 3u);  // row 0 free, 1-2 at 2
    EXPECT_EQ(ledger.claim(fp(4, 6, 500, 560)), 1u);
    EXPECT_EQ(ledger.claim(fp(5, 6, 520, 530)), 2u);
    // Rows and x outside the die are clamped away, not tracked.
    EXPECT_EQ(ledger.claim(fp(-3, 0, 0, 16)), 1u);
    EXPECT_EQ(ledger.claim(fp(0, 1, 0, 16)), 1u);
    EXPECT_EQ(ledger.claim(fp(6, 8, -200, 0)), 1u);
    EXPECT_EQ(ledger.claim(fp(6, 8, 0, 40)), 1u);
    // A footprint straddling the die edge keeps its inside part.
    EXPECT_EQ(ledger.claim(fp(7, 12, 1000, 1100)), 1u);
    EXPECT_EQ(ledger.claim(fp(7, 8, 1016, 1024)), 2u);
}

TEST(LevelSchedule, EarlierClaimsRaiseLaterLevels) {
    const std::vector<AttemptFootprint> fps{
        fp(0, 2, 0, 10),
        fp(0, 2, 5, 15),   // overlaps 0 → wave 2
        fp(0, 2, 12, 20),  // overlaps 1 → wave 3, after 1 commits
        fp(4, 6, 0, 10),   // independent rows → wave 1
    };
    FootprintLedger ledger;
    ledger.reset(8, Span{0, 256});
    std::vector<std::uint32_t> levels;
    for (const AttemptFootprint& f : fps) {
        levels.push_back(ledger.claim(f));
    }
    // Task 2 does not overlap task 0, but it must wait for task 1 — the
    // serial-equivalence rule: later cells yield to every earlier
    // overlapping cell, whatever wave that cell itself lands in.
    EXPECT_EQ(levels, (std::vector<std::uint32_t>{1, 2, 3, 1}));
}

/// Wave-by-wave greedy reference for the level schedule: each wave walks
/// the still-pending footprints in queue order; one joins the wave iff
/// its bucket-rounded, die-clamped extent misses every earlier pending
/// footprint of that walk (joined or not). O(n²) per wave.
std::vector<std::uint32_t> greedy_waves(
    const std::vector<AttemptFootprint>& fps, SiteCoord num_rows,
    Span x_extent) {
    const SiteCoord b = FootprintLedger::kBucketSites;
    std::vector<AttemptFootprint> buckets;
    for (const AttemptFootprint& f : fps) {
        AttemptFootprint c;
        c.rows = Span{std::max<SiteCoord>(f.rows.lo, 0),
                      std::min(f.rows.hi, num_rows)};
        const SiteCoord lo = std::max(f.x.lo, x_extent.lo) - x_extent.lo;
        const SiteCoord hi = std::min(f.x.hi, x_extent.hi) - x_extent.lo;
        c.x = lo < hi ? Span{lo / b, (hi + b - 1) / b} : Span{0, 0};
        buckets.push_back(c);
    }
    std::vector<std::uint32_t> wave(fps.size(), 0);
    std::vector<std::size_t> pending(fps.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
        pending[i] = i;
    }
    for (std::uint32_t w = 1; !pending.empty(); ++w) {
        std::vector<std::size_t> deferred;
        for (std::size_t k = 0; k < pending.size(); ++k) {
            const AttemptFootprint& f = buckets[pending[k]];
            bool conflict = false;
            for (std::size_t j = 0; j < k && !conflict; ++j) {
                const AttemptFootprint& e = buckets[pending[j]];
                conflict = !f.rows.empty() && !f.x.empty() &&
                           !e.rows.empty() && !e.x.empty() && f.overlaps(e);
            }
            if (conflict) {
                deferred.push_back(pending[k]);
            } else {
                wave[pending[k]] = w;
            }
        }
        pending = std::move(deferred);
    }
    return wave;
}

TEST(LevelSchedule, LevelsEqualGreedyWaveByWavePartition) {
    const SiteCoord num_rows = 16;
    const Span x_extent{5, 405};
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        Rng rng(seed);
        std::vector<AttemptFootprint> fps;
        for (int i = 0; i < 300; ++i) {
            const auto row = static_cast<SiteCoord>(rng.uniform(-3, 17));
            const auto rows = static_cast<SiteCoord>(rng.uniform(1, 6));
            const auto x = static_cast<SiteCoord>(rng.uniform(-20, 420));
            const auto w = static_cast<SiteCoord>(rng.uniform(1, 60));
            fps.push_back(fp(row, row + rows, x, x + w));
        }
        FootprintLedger ledger;
        ledger.reset(static_cast<std::size_t>(num_rows), x_extent);
        std::vector<std::uint32_t> levels;
        for (const AttemptFootprint& f : fps) {
            levels.push_back(ledger.claim(f));
        }
        const std::vector<std::uint32_t> expected =
            greedy_waves(fps, num_rows, x_extent);
        EXPECT_EQ(levels, expected) << "seed " << seed;
        // Dense enough that the schedule actually stacks.
        EXPECT_GT(*std::max_element(levels.begin(), levels.end()), 3u)
            << "seed " << seed;
    }
}

// ---------------------------------------------------------------------------
// Whole-flow bit-identity: plan/commit waves vs the serial reference loop.

/// Every cell's position; unplaced cells read (-1, -1).
std::vector<std::pair<SiteCoord, SiteCoord>> positions(const Database& db) {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    pos.reserve(db.num_cells());
    for (const Cell& c : db.cells()) {
        pos.emplace_back(c.placed() ? c.x() : -1, c.placed() ? c.y() : -1);
    }
    return pos;
}

void unplace_all(Database& db, SegmentGrid& grid) {
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
}

struct RunOutcome {
    std::vector<std::pair<SiteCoord, SiteCoord>> pos;
    LegalizerStats stats;
};

RunOutcome run(Database& db, SegmentGrid& grid, LegalizerOptions opts,
               int threads) {
    unplace_all(db, grid);
    opts.num_threads = threads;
    // Every run records a wall-clock timeline: this test sits in the
    // `parallel` tier that CI re-runs under TSan, so the Timeline's
    // lock-free lane writes get raced by real pool workers here.
    obs::Timeline timeline;
    obs::ScopedTimeline install(timeline);
    RunOutcome out;
    out.stats = legalize_placement(db, grid, opts);
    out.pos = positions(db);
    return out;
}

RunOutcome run_reference(Database& db, SegmentGrid& grid,
                         const LegalizerOptions& opts) {
    unplace_all(db, grid);
    RunOutcome out;
    out.stats = qa::reference_legalize(db, grid, opts);
    out.pos = positions(db);
    return out;
}

/// Positions and every stat except waves, conflict_requeues, audits_run
/// and runtime_s, which the reference loop does not produce.
void expect_equal(const RunOutcome& a, const RunOutcome& b,
                  const std::string& what) {
    EXPECT_EQ(a.pos, b.pos) << what;
    EXPECT_EQ(a.stats.success, b.stats.success) << what;
    EXPECT_EQ(a.stats.num_cells, b.stats.num_cells) << what;
    EXPECT_EQ(a.stats.direct_placements, b.stats.direct_placements) << what;
    EXPECT_EQ(a.stats.mll_successes, b.stats.mll_successes) << what;
    EXPECT_EQ(a.stats.mll_failures, b.stats.mll_failures) << what;
    EXPECT_EQ(a.stats.fallback_placements, b.stats.fallback_placements)
        << what;
    EXPECT_EQ(a.stats.ripup_placements, b.stats.ripup_placements) << what;
    EXPECT_EQ(a.stats.unplaced, b.stats.unplaced) << what;
    EXPECT_EQ(a.stats.rounds, b.stats.rounds) << what;
    EXPECT_EQ(a.stats.mll_points_evaluated, b.stats.mll_points_evaluated)
        << what;
}

/// The three golden-suite benchmark flavours (test_golden.cpp); identity
/// on these means identity on the reports the golden tier pins down.
GenProfile golden_profile(int flavour) {
    GenProfile p;
    switch (flavour) {
        case 0:  // uniform_small
            p.num_single = 300; p.num_double = 30;
            p.density = 0.55; p.seed = 11;
            break;
        case 1:  // blocked_mixed
            p.num_single = 220; p.num_double = 40;
            p.num_triple = 12; p.num_quad = 8;
            p.density = 0.6; p.seed = 22;
            p.num_blockages = 2; p.blockage_area_frac = 0.04;
            break;
        default:  // fenced_dense
            p.num_single = 260; p.num_double = 30;
            p.density = 0.5; p.seed = 33;
            p.fence_cell_frac = 0.15;
            break;
    }
    return p;
}

const char* golden_name(int flavour) {
    return flavour == 0   ? "uniform_small"
           : flavour == 1 ? "blocked_mixed"
                          : "fenced_dense";
}

/// Runs the legalizer at 1, 2 and 8 threads and the reference loop once;
/// all must agree. Returns the 1-thread stats so callers can assert that
/// a case really reaches the fallback or rip-up rounds.
LegalizerStats expect_pipeline_identity(Database& db, SegmentGrid& grid,
                                        const LegalizerOptions& opts,
                                        const std::string& what) {
    const RunOutcome reference = run_reference(db, grid, opts);
    RunOutcome first;
    for (const int threads : {1, 2, 8}) {
        const RunOutcome rp = run(db, grid, opts, threads);
        expect_equal(rp, reference, what);
        EXPECT_GT(rp.stats.waves, 0u) << what;
        if (threads == 1) {
            first = rp;
        }
        // And the wave structure itself is thread-count independent.
        EXPECT_EQ(rp.stats.waves, first.stats.waves) << what;
        EXPECT_EQ(rp.stats.conflict_requeues, first.stats.conflict_requeues)
            << what;
    }
    return first.stats;
}

LegalizerOptions default_options() {
    LegalizerOptions opts;
    opts.seed = 5;
    return opts;
}

TEST(RegionParallel, GoldenProfilesBitIdenticalToSerial) {
    for (int flavour = 0; flavour < 3; ++flavour) {
        GenResult gen = generate_benchmark(golden_profile(flavour));
        SegmentGrid grid = SegmentGrid::build(gen.db);
        expect_pipeline_identity(gen.db, grid, default_options(),
                                 golden_name(flavour));
    }
}

TEST(RegionParallel, FallbackRoundsBitIdenticalToSerial) {
    // Tiny windows and an early fallback push the golden profiles into
    // the barrier rounds, where a failed plan falls back to the nearest
    // free slot at commit.
    for (int flavour = 0; flavour < 3; ++flavour) {
        for (const bool exact : {false, true}) {
            GenResult gen = generate_benchmark(golden_profile(flavour));
            SegmentGrid grid = SegmentGrid::build(gen.db);
            LegalizerOptions opts = default_options();
            opts.mll.rx = 2;
            opts.mll.ry = 1;
            opts.mll.exact_evaluation = exact;
            opts.free_slot_fallback_round = 2;
            const std::string what = std::string(golden_name(flavour)) +
                                     (exact ? " exact" : " approx") +
                                     " fallback";
            const LegalizerStats s =
                expect_pipeline_identity(gen.db, grid, opts, what);
            EXPECT_GT(s.fallback_placements, 0u) << what;
        }
    }
}

TEST(RegionParallel, RipupRoundBitIdenticalToSerial) {
    Database db = ripup_starved_design();
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts = default_options();
    opts.order = LegalizerOptions::Order::kInputOrder;
    opts.max_rounds = 12;
    const LegalizerStats s =
        expect_pipeline_identity(db, grid, opts, "ripup_starved");
    EXPECT_GT(s.ripup_placements, 0u);
    EXPECT_TRUE(s.success);
}

TEST(RegionParallel, FallbackIntoALaterTasksSlotKeepsSerialOrder) {
    // One 80-site row, blocked but for sites [48, 52). Cell a wants
    // x = 2, where MLL finds no row, so the fallback moves it into the
    // gap — the very slot that cell b, later in the queue and far from a,
    // wants. Planned in one wave, b would commit into an occupied slot;
    // as barriers, b plans after a's fallback and stays unplaced, as in
    // the serial loop.
    Database db = empty_design(1, 80);
    db.floorplan().add_blockage(Rect{0, 0, 48, 1});
    db.floorplan().add_blockage(Rect{52, 0, 28, 1});
    add_unplaced(db, "a", 2.0, 0.0, 4, 1);
    add_unplaced(db, "b", 48.0, 0.0, 4, 1);
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts = default_options();
    opts.free_slot_fallback_round = 1;
    opts.mll.rx = 2;
    opts.mll.ry = 0;
    const LegalizerStats s =
        expect_pipeline_identity(db, grid, opts, "fallback into b's slot");
    EXPECT_EQ(s.fallback_placements, 1u);
    EXPECT_EQ(s.unplaced, 1u);
}

TEST(RegionParallel, SaturatedDesignsDegradeGracefully) {
    // Adversarial high-density cases (qa fuzz generator): footprints
    // conflict constantly, so waves thin out toward serial order, and
    // the cells left over run every barrier round up to max_rounds — the
    // result must stay bit-identical and the conflicts must be visible in
    // the stats.
    std::size_t total_requeues = 0;
    for (const std::uint64_t seed : {101u, 202u, 303u}) {
        Rng rng(seed);
        Database db = qa::gen_saturated_case(rng, /*num_targets=*/3);
        SegmentGrid grid = qa::materialize_case(db);
        const LegalizerStats s = expect_pipeline_identity(
            db, grid, default_options(),
            "saturated " + std::to_string(seed));
        EXPECT_EQ(s.rounds, default_options().max_rounds);
        total_requeues += s.conflict_requeues;
    }
    // At ~90% density the schedule must actually be deferring work.
    EXPECT_GT(total_requeues, 0u);
}

TEST(RegionParallel, WavesAccountedInStats) {
    GenResult gen = generate_benchmark(golden_profile(0));
    SegmentGrid grid = SegmentGrid::build(gen.db);
    const RunOutcome rp = run(gen.db, grid, default_options(), 2);
    // Every round runs at least one wave; requeued cells appear in the
    // requeue counter, and a wave can never batch zero cells.
    EXPECT_GE(rp.stats.waves, static_cast<std::size_t>(rp.stats.rounds));
    EXPECT_TRUE(rp.stats.success);
}

TEST(RegionParallel, BarrierRoundRunsOneWavePerTask) {
    // From the fallback round on every task is a barrier: n tasks run n
    // one-task waves and add n(n-1)/2 requeues (Σ(level − 1)), even when
    // their footprints are far apart.
    Database db = empty_design(2, 400);
    for (int i = 0; i < 5; ++i) {
        add_unplaced(db, "c" + std::to_string(i), 80.0 * i, 0.0, 4, 1);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts = default_options();
    opts.free_slot_fallback_round = 1;
    const RunOutcome barrier = run(db, grid, opts, 2);
    EXPECT_EQ(barrier.stats.rounds, 1);
    EXPECT_EQ(barrier.stats.direct_placements, 5u);
    EXPECT_EQ(barrier.stats.waves, 5u);
    EXPECT_EQ(barrier.stats.conflict_requeues, 10u);
    // Without the fallback the same round is one wave.
    const RunOutcome plain = run(db, grid, default_options(), 2);
    EXPECT_EQ(plain.pos, barrier.pos);
    EXPECT_EQ(plain.stats.waves, 1u);
    EXPECT_EQ(plain.stats.conflict_requeues, 0u);
}

}  // namespace
}  // namespace mrlg::test
