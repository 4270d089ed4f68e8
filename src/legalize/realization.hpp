#pragma once
/// \file realization.hpp
/// Legal placement realization (paper §5.3, Algorithm 2): with the target
/// committed at xt inside a chosen insertion point, push overlapped cells
/// minimally outward, cascading through the neighbour DAG.
///
/// Algorithm 2 is a BFS worklist; we implement the equivalent closed form:
/// right-side positions in one ascending-x sweep
///     R_k = max(x_k, max over left pushers (R_l + w_l), target: xt + w_t)
/// and left-side positions in one descending-x sweep
///     L_k = min(x_k, min over right pushers (L_r - w_k), target: xt - w_k).
/// Both sweeps start at the gap's neighbours and then visit, in index (x)
/// order, only the cells a moved cell overlaps — Algorithm 2's BFS set
/// (push_chain.hpp, DESIGN.md §2e) — so each moved cell is finalized
/// exactly once. Only the initial copy of the positions and the checked
/// merge touch every local cell.

#include <vector>

#include "legalize/enumeration.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/push_chain.hpp"
#include "util/annotations.hpp"

namespace mrlg {

struct Realization {
    bool ok = false;
    SiteCoord xt = 0;  ///< Target x actually used.
    /// Final x per local cell index (== original x when unmoved).
    std::vector<SiteCoord> new_x;
    /// Σ |new_x - x| over local cells, site units.
    double moved_sites = 0.0;
};

/// The in-place variant's buffers: the descending sweep's positions and
/// the sweeps' work set. Both keep their capacity across calls.
struct RealizationScratch {
    std::vector<SiteCoord> left;
    PushMarks marks;
};

/// Computes the pushed placement for target position `xt` inside `point`.
/// Preconditions: compute_minmax_placement has run; point is a valid
/// enumeration output and xt ∈ [point.lo, point.hi]. Under those
/// preconditions a legal result always exists (every pushed cell stays
/// within [xl, xr]); violations indicate a bug and are asserted.
MRLG_EFFECT_READONLY
Realization realize_insertion(const LocalProblem& lp,
                              const InsertionPoint& point, SiteCoord xt,
                              SiteCoord target_w);
/// In-place variant refilling `out` and reusing `scratch`.
MRLG_EFFECT_READONLY
void realize_insertion(const LocalProblem& lp, const InsertionPoint& point,
                       SiteCoord xt, SiteCoord target_w, Realization& out,
                       RealizationScratch& scratch);

}  // namespace mrlg
