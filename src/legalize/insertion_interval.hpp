#pragma once
/// \file insertion_interval.hpp
/// Insertion intervals (paper §5.1.1): for every gap of every local row,
/// the inclusive range [lo, hi] of x positions where the target cell could
/// sit in that gap, derived from the leftmost/rightmost placements:
///   gap between cells i and j:        [xl_i + w_i , xr_j − w_t]
///   gap at the left segment wall:     [span.lo    , xr_j − w_t]
///   gap at the right segment wall:    [xl_i + w_i , span.hi − w_t]
/// Negative-length intervals (hi < lo) are discarded (Fig. 7(f)).

#include <span>
#include <vector>

#include "legalize/local_problem.hpp"
#include "util/annotations.hpp"

namespace mrlg {

struct InsertionInterval {
    int k = 0;    ///< Local row index.
    int gap = 0;  ///< Gap index in row k: between cells[gap-1] and cells[gap].
    SiteCoord lo = 0;  ///< Leftmost feasible target x (inclusive).
    SiteCoord hi = 0;  ///< Rightmost feasible target x (inclusive).
};

/// Builds all non-discarded intervals for a target of width `target_w`.
/// Requires compute_minmax_placement to have run on `lp`.
MRLG_EFFECT_READONLY
std::vector<InsertionInterval> build_insertion_intervals(
    const LocalProblem& lp, SiteCoord target_w);
/// In-place variant refilling `out` (keeps its capacity).
MRLG_EFFECT_READONLY
void build_insertion_intervals(const LocalProblem& lp, SiteCoord target_w,
                               std::vector<InsertionInterval>& out);

/// Intersects the per-row feasible x ranges of the intervals matching the
/// chosen gaps (row k0+j must have an interval with gap == gaps[j]) into
/// [lo, hi]. Returns false — leaving [lo, hi] only partially tightened —
/// when some row has no matching interval (or `gaps` is empty): such a
/// combination was discarded during interval construction and must not be
/// realized. Callers (the MIP decode path) treat false as a hard error
/// rather than silently keeping the kSiteCoordMin/Max sentinels.
bool bind_point_to_intervals(const std::vector<InsertionInterval>& intervals,
                             int k0, std::span<const int> gaps,
                             SiteCoord& lo, SiteCoord& hi);

}  // namespace mrlg
