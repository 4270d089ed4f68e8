#pragma once
/// Shared fixtures: tiny hand-built designs and randomized design factories
/// used across the test suite.

#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/realization.hpp"
#include "util/rng.hpp"

namespace mrlg::test {

/// A database with `rows` × `sites` rectangular floorplan and no cells.
Database empty_design(SiteCoord rows, SiteCoord sites);

/// Adds a movable cell and places it via the grid. Returns its id.
CellId add_placed(Database& db, SegmentGrid& grid, const std::string& name,
                  SiteCoord x, SiteCoord y, SiteCoord w, SiteCoord h,
                  RailPhase phase = RailPhase::kEven);

/// Adds an unplaced movable cell with the given gp position.
CellId add_unplaced(Database& db, const std::string& name, double gp_x,
                    double gp_y, SiteCoord w, SiteCoord h,
                    RailPhase phase = RailPhase::kEven);

/// The deadlock rip-up exists for, on a 4-row × 40-site die: sixteen
/// 5-site single-row cells, placed at their gp, fill rows 1-2 exactly,
/// and the unplaced double-height odd-phase cell `stuck` wants rows 1-2.
/// Free rows 0 and 3 are not paired, so no MLL attempt and no free slot
/// can place it: an ECO call (LegalizerOptions::unplace_first = false)
/// needs rip-up. Legalizing every cell afresh places `stuck` first and
/// needs none.
struct StarvedDesign {
    Database db;
    SegmentGrid grid;
    CellId stuck;
};
StarvedDesign ripup_starved_design();

/// Randomized legal design: packs `num_cells` cells (multi_frac of them
/// double-height) into the die; every cell placed. Densities ~0.3-0.8.
struct RandomDesign {
    Database db;
    SegmentGrid grid;
};
RandomDesign random_legal_design(Rng& rng, SiteCoord rows, SiteCoord sites,
                                 int num_cells, double multi_frac,
                                 SiteCoord max_h = 2);

/// audit_segment_grid at kCheap with the rail checks off: the segment
/// lists hold each placed cell exactly where it lies. On failure the
/// assertion prints the audit report.
::testing::AssertionResult segment_lists_consistent(const Database& db,
                                                    const SegmentGrid& grid);

/// Brute-force hinge minimum by scanning all integer x in [lo, hi]
/// (reference for minimize_hinge_cost): (argmin, cost) under the same tie
/// rule, smaller |x − pref| and then smaller x.
std::pair<SiteCoord, double> brute_force_hinge_min(
    const std::vector<SiteCoord>& a, const std::vector<SiteCoord>& b,
    double pref, SiteCoord lo, SiteCoord hi);

/// Whole-window references for the push-chain kernels: the sweeps over
/// every local cell, and the minimizer that sorts its candidates and
/// binary-searches each one. The library's kernels must agree with them
/// bit for bit.
CriticalPositions reference_critical_positions(const LocalProblem& lp,
                                               const InsertionPoint& point,
                                               SiteCoord target_w);
Realization reference_realize_insertion(const LocalProblem& lp,
                                        const InsertionPoint& point,
                                        SiteCoord xt, SiteCoord target_w);
std::pair<SiteCoord, double> reference_minimize_hinge_cost(
    const HingeSet& hinges, SiteCoord lo, SiteCoord hi);

/// Whole-row reference for find_nearest_free_position: sorts every usable
/// row by |y − py| (the lower row first on a tie) and, for each row tried,
/// gathers and sorts the blocked spans of the whole row, then scans every
/// free run (smallest |x − px|, the left one first). Stops once a row's
/// |dy| cost alone reaches the best cost.
std::optional<Point> reference_find_nearest_free_position(
    const Database& db, const SegmentGrid& grid, CellId cell, double px,
    double py, bool check_rail);

/// Reference for the multi-row scanline: its events generated in any
/// order and std::sort-ed by (x, type, payload) before the sweep.
void reference_enumerate_insertion_points_scanline(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts,
    EnumerationResult& out);

}  // namespace mrlg::test
