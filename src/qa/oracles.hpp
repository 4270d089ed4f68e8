#pragma once
/// \file oracles.hpp
/// Differential oracles: independent implementations answering the same
/// question are run against each other, and any disagreement is a bug in
/// one of them — no hand-written expected value required. The oracle
/// matrix (see DESIGN.md "QA subsystem"):
///
///   check_legality        vs  naive O(n²) re-derivation from first
///                             principles (floorplan rows, blockages,
///                             fences — never the segment grid);
///   approx MLL evaluation vs  exact evaluation vs solve_local_exact vs
///                             the solve_local_ilp MIP (same feasibility,
///                             exact == ILP cost, approx within its proven
///                             lower-bound relation, identical winner
///                             under the deterministic tie-break);
///   bound-pruned scan     vs  the exhaustive serial scan, per evaluator
///                             (same winner, xt and bit-equal cost; the
///                             cost bound never above a point's cost);
///   scanline enumeration  vs  the naive exponential enumeration (small
///                             problems only);
///   mll_place + mll_undo  vs  a full before snapshot (byte-identical
///                             restore);
///   ripup_place rollback  vs  a full before snapshot;
///   legalize_placement    vs  reference_legalize, Algorithm 1 as a
///                             serial per-cell loop (same positions and
///                             stats at any thread count).
///
/// Every diff_* function returns "" when the implementations agree and a
/// human-readable mismatch description otherwise. All are deterministic:
/// same inputs, same string, at any thread count.

#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "legalize/ripup.hpp"
#include "legalize/target.hpp"

namespace mrlg::qa {

/// Reference legality result, re-derived O(n²) from the floorplan alone.
struct NaiveLegality {
    bool legal = true;
    /// Canonical overlapping pairs: (smaller id, larger id), sorted,
    /// deduplicated (one entry per pair regardless of shared row count).
    std::vector<std::pair<CellId, CellId>> overlap_pairs;
    std::size_t num_out_of_rows = 0;
    std::size_t num_rail_violations = 0;
    std::size_t num_unplaced = 0;
};

/// O(n²) reference oracle. Honors require_all_placed /
/// check_rail_alignment from `opts`; ignores the sweep-only knobs.
/// Intentionally never consults the SegmentGrid: rows, blockages and
/// fences are read straight off the Floorplan so grid bookkeeping bugs
/// cannot leak into the reference.
NaiveLegality naive_check_legality(const Database& db,
                                   const LegalityOptions& opts = {});

/// check_legality (per-row sweep over the grid's view) vs the naive
/// reference: same verdict, same violation counts per category, same
/// canonical overlap pair set.
std::string diff_legality(const Database& db, const SegmentGrid& grid,
                          const LegalityOptions& opts = {});

/// Knobs for the local-problem cross-check.
struct LocalDiffOptions {
    bool check_rail = true;
    /// Run the MIP cross-check when the problem is small enough (at most
    /// 8 local cells and 64 insertion points).
    bool run_ilp = true;
};

/// Cross-checks every independent local-problem solver on the window
/// around (pref_x, pref_y) for inserting `target` (an unplaced movable
/// cell): approx vs exact evaluation, the bound-pruned scan vs the
/// exhaustive one, scanline vs naive enumeration, solve_local_exact vs
/// solve_local_ilp, evaluation estimates vs realized displacement.
/// Read-only: the database is never modified.
std::string diff_local_solvers(const Database& db, const SegmentGrid& grid,
                               CellId target, double pref_x, double pref_y,
                               const Rect& window,
                               const LocalDiffOptions& opts = {});

/// mll_place then (on success) mll_undo must restore the database and the
/// segment grid byte-identically; a failed mll_place must not have touched
/// anything. On success also audits the committed state (grid bookkeeping
/// + full legality) and checks the est/real cost relation: est == real for
/// exact evaluation, est <= real for the §5.2 neighbour approximation.
/// Leaves the design exactly as found (commit is always undone).
std::string diff_mll_roundtrip(Database& db, SegmentGrid& grid,
                               CellId target, double pref_x, double pref_y,
                               const MllOptions& opts = {});

/// ripup_place: a failed transaction must restore the state
/// byte-identically (including gp-driven victim re-insertion positions); a
/// successful one must leave a legal, audit-clean placement with no more
/// than max_evictions victims. On success the placement legitimately
/// changes and stays committed.
std::string diff_ripup_rollback(Database& db, SegmentGrid& grid,
                                CellId target, double pref_x, double pref_y,
                                const RipupOptions& opts = {});

/// Algorithm 1 as a plain serial loop over the public API: each round
/// tries every still-unplaced cell once, in queue order, at its jittered
/// position — the direct slot, then mll_place, then (from
/// free_slot_fallback_round) the nearest free slot, then (two rounds
/// later, when enabled) rip-up. legalize_placement's plan/commit waves
/// must reproduce it exactly. Fills every LegalizerStats field except
/// waves, conflict_requeues, audits_run and runtime_s.
LegalizerStats reference_legalize(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts = {});

/// legalize_placement vs reference_legalize, each on its own copy of
/// `db` and `grid`: every cell must end at the same position and every
/// stat but waves, conflict_requeues, audits_run and runtime_s must
/// agree.
std::string diff_legalizer(const Database& db, const SegmentGrid& grid,
                           const LegalizerOptions& opts = {});

/// Canonicalizes a pair list to (min,max), sorted, unique — shared by the
/// legality diff and its tests.
std::vector<std::pair<CellId, CellId>> canonical_pairs(
    std::vector<std::pair<CellId, CellId>> pairs);

}  // namespace mrlg::qa
