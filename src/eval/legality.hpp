#pragma once
/// \file legality.hpp
/// Checker for the four legality constraints of paper §2:
///   1. cells pairwise overlap-free,
///   2. cells aligned to placement sites on rows,
///   3. every row slice of a cell contained in a non-blocked row span,
///   4. even-row-height cells on rows of matching power-rail parity.
/// The checker is independent of SegmentGrid's internal lists (it re-derives
/// overlaps with a per-row sweep), so it can catch grid bookkeeping bugs;
/// audit_segment_grid (check/audit.hpp) validates the lists themselves.
/// It runs on the calling thread.

#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

/// LegalityReport::messages stops growing at this many violations; the
/// counters still count them all.
inline constexpr std::size_t kMaxLegalityMessages = 32;

struct LegalityOptions {
    /// Enforce constraint 4 (power-rail parity). Disabled for the paper's
    /// "Power Line Not Aligned" experiment.
    bool check_rail_alignment = true;
    /// Require every movable cell to be placed.
    bool require_all_placed = true;
    /// Record every overlapping cell pair in LegalityReport::overlap_pairs
    /// (uncapped, complete per-row pair enumeration). Off by default —
    /// used by the qa/ differential oracle to compare the sweep against an
    /// independent O(n²) reference.
    bool collect_overlap_pairs = false;
    /// Read by nothing: the check runs on the calling thread. Kept only
    /// because bench_suite/bench_suite.cpp assigns it; ROADMAP item 1
    /// deletes it.
    int num_threads = 0;
};

struct LegalityReport {
    bool legal = true;
    std::size_t num_overlaps = 0;
    std::size_t num_out_of_rows = 0;
    std::size_t num_rail_violations = 0;
    std::size_t num_unplaced = 0;
    /// The first kMaxLegalityMessages violations: the per-cell checks in
    /// cell id order (for one cell: unplaced, or outside rows then rail
    /// parity), then the overlaps row by row, each row in sweep order.
    std::vector<std::string> messages;
    /// All overlapping pairs, (earlier-starting cell, later cell), when
    /// LegalityOptions::collect_overlap_pairs is set — complete within each
    /// row (not just covering/covered attribution); a pair overlapping in
    /// h common rows appears h times. Deterministic order.
    std::vector<std::pair<CellId, CellId>> overlap_pairs;

    explicit operator bool() const { return legal; }
};

/// Full-design legality audit.
LegalityReport check_legality(const Database& db, const SegmentGrid& grid,
                              const LegalityOptions& opts = {});

/// Single-cell check: would placing `c` at (x, y) be legal w.r.t. rows,
/// blockages and rail parity (geometry only — no overlap test; use
/// SegmentGrid::placeable for that)?
bool position_legal_for_cell(const Database& db, const SegmentGrid& grid,
                             CellId c, SiteCoord x, SiteCoord y,
                             bool check_rail_alignment = true);

/// True when an even-height cell with phase `p` may rest its bottom edge on
/// row `y` (or any cell when `h` is odd).
bool rail_compatible(SiteCoord y, SiteCoord height, RailPhase p);

}  // namespace mrlg
