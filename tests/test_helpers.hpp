#pragma once
/// Shared fixtures: tiny hand-built designs and randomized design factories
/// used across the test suite.

#include <vector>

#include <gtest/gtest.h>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/local_problem.hpp"
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

/// A 4-row × 40-site die that needs rip-up under Order::kInputOrder:
/// sixteen 5-site single-row cells fill rows 1-2 exactly before, in
/// input order, a double-height odd-phase cell that wants rows 1-2. Free
/// rows 0 and 3 are not paired, so only rip-up can place it. All cells
/// are unplaced.
Database ripup_starved_design();

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

/// Brute-force minimal hinge cost by scanning all integer x in [lo, hi]
/// (reference for minimize_hinge_cost).
double brute_force_hinge_min(const std::vector<SiteCoord>& a,
                             const std::vector<SiteCoord>& b, double pref,
                             SiteCoord lo, SiteCoord hi);

}  // namespace mrlg::test
