#pragma once
/// \file audit_local.hpp
/// Auditors for the extracted local problem: window extraction
/// post-conditions of §2.1.3, the min/max placement bounds of §5.1.1 and
/// the bound-pruned insertion-point scan. Split from audit.hpp so that
/// the core auditors do not pull the legalize headers into every client.

#include <span>

#include "check/audit.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/local_problem.hpp"

namespace mrlg {

/// Post-conditions of extract_local_region (§2.1.3), checked on the
/// extracted problem before any stage reads it:
///  * the CSR layout holds: present rows' slices tile the flat row pool in
///    row order and absent rows are empty (lr-csr); cells' pos_in_row
///    slots tile their pool in cell order, and each names the cell's
///    position in that row's list (lr-pos-pool);
///  * row k describes absolute row y0+k (lr-row-index) with a non-empty
///    span inside the window (lr-span), enclosed by its SegmentGrid
///    segment of the requested fence region (lr-segment);
///  * every row slot names a local cell (lr-cell-ref) that lies inside the
///    row's span (lr-cell-span), after its predecessor without overlap
///    (lr-cell-order), at the position its pos_in_row slot holds for a row
///    of its footprint (lr-cell-pos);
///  * every local cell has a positive size (lr-cell-geometry), a bottom
///    row index k0 that matches its y (lr-cell-row), a row of the problem
///    under each of its rows (lr-cell-rows), and lies inside the window
///    (lr-cell-window); it is placed (lr-cell-placed) and carries its
///    cell's footprint (lr-geom);
///  * cells strictly increase in (x, bottom row) — the index order the
///    sweeps walk, which also rules out duplicates (lr-locals-sorted);
///  * no non-local cell intersects a chosen local span (non-local cells
///    are frozen obstacles — their sites must have been subtracted;
///    lr-nonlocal-free).
AuditReport audit_local_region(const Database& db, const SegmentGrid& grid,
                               const LocalProblem& lp, int fence_region = 0);

/// The §5.1.1 bounds that compute_minmax_placement filled in: xl <= x <=
/// xr for every cell (lp-minmax), both packings inside the row spans
/// (lp-minmax-span), and each packing preserving the per-row cell order
/// without overlap (lp-minmax-order). Reads the rows through the layout
/// that audit_local_region checks.
AuditReport audit_local_problem(const LocalProblem& lp);

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
