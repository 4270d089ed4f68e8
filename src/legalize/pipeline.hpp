#pragma once
/// \file pipeline.hpp
/// Region-parallel plan/commit pipeline support for the legalizer.
///
/// The legalizer's retry rounds process a pending-cell queue. In the
/// region-parallel pipeline each round is scheduled once and then runs as
/// a sequence of *waves*:
///
///   1. schedule — walk the queue in order; each cell's *level* is 1 + the
///      highest level already stored in the FootprintLedger buckets its
///      conservative AttemptFootprint covers (1 when none is claimed), and
///      the cell stores its level in those buckets. Wave k is the level-k
///      cells, in queue order (one counting sort).
///   2. plan — a wave's MLL problems are solved concurrently, read-only
///      against the wave-start grid (mll_plan, per-thread scratch), into
///      the round's plan array: the wave's i-th task writes slot i.
///   3. commit — plans are applied serially in queue order (mll_commit),
///      each read from its task's slot. A plan lives only from its wave's
///      plan phase to its commit, so the array is as wide as the widest
///      wave, not as long as the queue.
///      A stale plan or a taken direct slot would mean two overlapping
///      footprints shared a wave, so it throws AssertionError naming the
///      cell (mll_commit, after restoring the grid) or the cell and wave
///      (a direct slot) instead of requeueing. In a round with the
///      free-slot fallback or rip-up enabled, a failed plan then tries
///      find_nearest_free_position and then ripup_place.
///
/// Those two may write anywhere on the die, so in such a round every task
/// is a *barrier*: its level is its queue position + 1 (no ledger claim),
/// it plans alone, and the round's waves replay the serial order one task
/// at a time.
///
/// Worked example (queue order a, b, c, d; rows ↓, x →):
///
///   row 3   ·······[ d ]····          a: level 1 (nothing claimed yet)
///   row 2   [ a ]··[ d ]····          b: overlaps a           → level 2
///   row 1   [ a ][b]·······[ c ]      c: overlaps neither a nor b → 1
///   row 0   ·····[b]·······[ c ]      d: rows 2-3 clear of a, b, c → 1
///           wave 1 = {a, c, d}, wave 2 = {b}
///
/// Serial equivalence, by induction over the queue: every earlier cell
/// whose footprint overlaps a level-k cell's has a lower level, so it has
/// committed (or failed) before wave k plans; every cell committed before
/// wave k that is *later* in the queue has a footprint disjoint from this
/// one. A serial attempt only mutates state inside its own footprint
/// (failed attempts mutate nothing), so the state a wave-k plan reads
/// equals the state its serial turn would have seen, and its commit
/// writes exactly what the serial attempt would have written. The outcome
/// is therefore bit-identical to the one-cell-at-a-time loop at every
/// thread count — including the degenerate dense case where every
/// footprint overlaps its predecessor and each wave holds one cell, which
/// is what a barrier round is (its footprints are the whole die).
/// The levels reproduce the greedy wave-by-wave partition exactly (a cell
/// defers past wave j iff an earlier overlapping cell is still pending
/// there), so a round defers Σ(level − 1) cells in total.
///
/// Determinism contract: the schedule walks the queue in index order and
/// the ledger is a fixed-layout array — nothing here may iterate an
/// unordered container or depend on thread scheduling
/// (`tools/mrlg_lint.py determinism` pins this file down).

#include <cstdint>
#include <vector>

#include "db/types.hpp"
#include "util/geometry.hpp"

namespace mrlg {

/// Conservative bound on everything one legalization attempt (direct
/// placement try + MLL plan/commit) may read or write, as row/x spans in
/// site units. Two attempts whose footprints are disjoint can be planned
/// against the same frozen grid and committed in either order with
/// identical results — the invariant behind the level schedule above,
/// which the FootprintLedger below enforces.
struct AttemptFootprint {
    Span rows;  ///< Absolute row range [lo, hi).
    Span x;     ///< Site range [lo, hi).

    bool overlaps(const AttemptFootprint& o) const {
        return rows.overlaps(o.rows) && x.overlaps(o.x);
    }
};

/// Computes the footprint of an attempt with MLL window `window` and
/// direct-placement rectangle `fitted` (the nearest_aligned_position slot,
/// which clamping can push outside the window).
///
/// Why this bounds the attempt:
///  * Rows: extraction reads only segments of rows intersecting `window`
///    (extract_local_region clips to it) and the direct try reads only
///    `fitted`'s rows; realization shifts cells whose slices lie in chosen
///    pieces, i.e. inside the window, and the commit registers the target
///    inside window ∪ fitted. No read or write leaves hull(window, fitted)
///    vertically.
///  * X: every piece is clipped to the window x-span and the direct try is
///    confined to fitted's x-span, but *reads* include any cell whose
///    slice overlaps those spans — a cell of width ≤ max_cell_width
///    overlapping [lo, hi) has its origin in [lo - (max_cell_width - 1),
///    hi), and its full slice lies in [lo - (max_cell_width - 1),
///    hi + (max_cell_width - 1)). Padding the hull by max_cell_width - 1
///    on both sides therefore covers the read set; writes are a subset.
AttemptFootprint compute_attempt_footprint(const Rect& window,
                                           const Rect& fitted,
                                           SiteCoord max_cell_width);

/// Per-bucket wave levels of the footprints claimed so far: per die row,
/// one level per kBucketSites-wide x bucket. Claims round *outward* to
/// bucket boundaries, so the ledger is conservative — footprints up to
/// kBucketSites-1 sites apart may land in different waves, which only
/// costs parallelism, never lets a real overlap share a wave.
class FootprintLedger {
public:
    /// Sites per bucket.
    static constexpr SiteCoord kBucketSites = 8;

    /// Clears the ledger for `num_rows` die rows spanning `x_extent`
    /// sites. Claims are clamped to the die on both axes: a footprint
    /// slice outside the rows or the x extent can hold no cell or segment,
    /// so two footprints overlapping only out there cannot interact.
    void reset(std::size_t num_rows, Span x_extent);

    /// Claims `fp` and returns its level: 1 + the highest level stored in
    /// the buckets it covers (1 when they are all unclaimed, or when `fp`
    /// lies wholly outside the die). That level is stored in every one of
    /// those buckets.
    std::uint32_t claim(const AttemptFootprint& fp);

private:
    Span x_extent_{0, 0};
    std::size_t num_rows_ = 0;
    std::size_t buckets_per_row_ = 0;
    /// Row-major bucket levels, buckets_per_row_ per row; 0 = unclaimed.
    std::vector<std::uint32_t> levels_;
};

/// One pending cell's state across the waves of a round.
struct PlanTask {
    CellId cell;
    double px = 0.0;  ///< Preferred x for this round (gp + jitter).
    double py = 0.0;
    Rect fitted;      ///< nearest_aligned_position slot for (px, py).
    bool rail_ok = false;  ///< fitted row passes the rail-parity check.
    AttemptFootprint footprint;

    enum class State : std::uint8_t {
        kPending,   ///< Waiting for its wave.
        kPlaced,    ///< Committed (direct, MLL, free slot or rip-up).
        kFailed,    ///< Every attempt failed this round; retry next round.
    };
    State state = State::kPending;

    /// Plan-phase result (filled by the wave's parallel plan pass).
    bool direct = false;  ///< fitted slot was free; no MLL plan needed.
    /// The MLL plan's num_points (0 when direct), for the round-level
    /// point accounting. The plan itself is wave-local: it lives in the
    /// round's per-slot plan array only from its wave's plan phase to its
    /// commit, so a round holds plans for its widest wave, not for every
    /// queued cell.
    std::size_t num_points = 0;
};

}  // namespace mrlg
