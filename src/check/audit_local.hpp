#pragma once
/// \file audit_local.hpp
/// Auditors for the extracted local problem: window extraction
/// pre/post-conditions of §2.1.3, the min/max placement bounds of §5.1.1
/// and the bound-pruned insertion-point scan. Split from audit.hpp so that
/// the core auditors do not pull the legalize headers into every client
/// (mrlg_check uses only inline members of the legalize types, and gets
/// evaluators as function pointers, so it does not link mrlg_legalize).

#include <span>

#include "check/audit.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/local_region.hpp"

namespace mrlg {

/// Post-conditions of extract_local_region (§2.1.3):
///  * the CSR layout holds: present rows' slices tile the flat cell arrays
///    in row order, absent rows are empty, and every row slot's local
///    index names that slot's cell in local_cells();
///  * row k describes absolute row y0+k with a non-empty span contained in
///    both the window and its enclosing SegmentGrid segment (of the
///    requested fence region);
///  * local cells are placed, x-sorted and overlap-free per row, fully
///    inside the window, and listed on every region row they cross;
///  * local_cells() is sorted, duplicate-free and equals the union of the
///    per-row lists;
///  * no non-local cell intersects a chosen local span (non-local cells
///    are frozen obstacles — their sites must have been subtracted).
AuditReport audit_local_region(const Database& db, const SegmentGrid& grid,
                               const LocalRegion& region,
                               int fence_region = 0);

/// Structural invariants of a built LocalProblem — including its CSR
/// layout: row slices tile the flat cell array, cells' pos_in_row slots
/// tile the flat pool in cell order, and every slot is filled and agrees
/// with the row lists — plus (when
/// `minmax_filled`) the §5.1.1 bounds: xl <= x <= xr for every cell, both
/// packings inside the row spans, and each packing preserving the per-row
/// cell order without overlap.
AuditReport audit_local_problem(const LocalProblem& lp, bool minmax_filled);

/// The bound-pruned scan (scan_insertion_points, DESIGN.md §2f) against
/// the exhaustive one: re-scores every point with `evaluate`, serially and
/// without the bound, and requires
///  * cost_lower_bound_um <= cost_um at every feasible point (scan-bound);
///  * `chosen` to be the first point of least cost: the same index
///    (PointScan::kNone when no point is feasible), the same xt and a
///    bit-equal cost (scan-winner).
AuditReport audit_point_scan(const LocalProblem& lp,
                             std::span<const InsertionPoint> points,
                             const TargetSpec& target,
                             PointEvaluator evaluate,
                             const PointScan& chosen);

}  // namespace mrlg
