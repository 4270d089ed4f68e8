#pragma once
/// \file evaluation.hpp
/// Insertion-point evaluation (paper §5.2, Fig. 9).
///
/// Every local cell's displacement as a function of the target position xt
/// is a hinge: zero inside [xa_i, xb_i], slope ±1 outside (Eq. (3)). The
/// optimal xt minimizes the sum of hinges plus the target's own |xt - x't|;
/// the paper takes the median of the critical positions. We implement:
///   * evaluate_insertion_point_approx — the paper's default: critical
///     positions of the <= 2·h_t immediate neighbours only, O(h_t);
///   * evaluate_insertion_point_exact  — critical positions of every local
///     cell via the push-chain recursion over the neighbour DAG; only the
///     cells on the point's push chains (push_chain.hpp) are visited, so
///     a point costs O(h_t + chain cells · rows per cell) beyond an
///     O(|C_W|) fill of the two threshold arrays (DESIGN.md §2e).
/// scan_insertion_points picks MLL's point with either one in one serial
/// pass, fully scoring only the points that cost_lower_bound_um cannot
/// exclude.
///
/// Concurrency contract: the evaluators and the scan are pure functions of
/// the LocalProblem plus their scratch argument — no globals, no Database
/// access. The legalizer's plan fan-out runs whole problems concurrently
/// on distinct worker threads (the one parallelism layer); each thread
/// brings its own scratch.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "legalize/enumeration.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/push_chain.hpp"
#include "legalize/target.hpp"
#include "util/annotations.hpp"

namespace mrlg {

struct Evaluation {
    bool feasible = false;
    SiteCoord xt = 0;     ///< Chosen target x (site units).
    double cost_um = 0.0; ///< Estimated displacement cost, microns
                          ///< (locals' x moves + target's x and y move).
};

/// Hinge cost model: sum_i max(0, a_i - x) + sum_j max(0, x - b_j)
/// + |x - pref|. `a` are left-cell critical positions (cell moves when the
/// target goes below a_i), `b` right-cell ones.
struct HingeSet {
    std::vector<SiteCoord> a;
    std::vector<SiteCoord> b;
    double pref = 0.0;
};

/// Exact critical positions for every local cell under `point`:
/// result[i] = {xa, xb} with xa = -inf (kSiteCoordMin) when the cell can
/// never be pushed left-ward chainwise, xb = +inf (kSiteCoordMax) likewise.
/// Exposed for tests and the exact evaluator.
struct CriticalPositions {
    std::vector<SiteCoord> xa;  ///< Push-left thresholds (left-side cells).
    std::vector<SiteCoord> xb;  ///< Push-right thresholds (right-side cells).
    /// The cells with a finite xa, in descending index order, and those
    /// with a finite xb, ascending: the point's two push chains.
    std::vector<int> left_chain;
    std::vector<int> right_chain;
    PushMarks marks;  ///< The sweeps' work set; empty between calls.
};

/// Reusable buffers for the per-candidate evaluation hot path and the
/// scan. One scratch object per thread; MllScratch holds the one an MLL
/// attempt uses, so steady-state evaluation performs no allocations. A
/// default-constructed scratch is always valid.
struct EvalScratch {
    HingeSet hinges;
    CriticalPositions cp;
    // approximate evaluator: neighbours already hinged
    std::vector<int> seen_left;
    std::vector<int> seen_right;
    // minimize_hinge_cost internals
    std::vector<SiteCoord> a_sorted;
    std::vector<SiteCoord> b_sorted;
    // scan_insertion_points: every point's cost bound
    std::vector<double> bounds;
};

/// Minimizes the hinge cost over integer x in [lo, hi] (lo <= hi required).
/// Returns (argmin, cost). Cost unit: sites. Ties break toward smaller
/// |x - pref|, then smaller x — deterministic across platforms. The
/// candidates are lo, hi, every breakpoint clamped into [lo, hi] and the
/// integers around the clamped pref, visited once in ascending order with
/// running integer sums: O(m log m) for m hinges, the sort of a and b.
std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi);
std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi,
                                                 EvalScratch& scratch);

/// Paper §5.2 approximation: neighbours of the gap only.
MRLG_EFFECT_READONLY
Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target);
Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target,
                                           EvalScratch& scratch);

/// Exact evaluation: critical positions for all local cells, hinges from
/// the two push chains.
MRLG_EFFECT_READONLY
Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target);
Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target,
                                          EvalScratch& scratch);

CriticalPositions compute_critical_positions(const LocalProblem& lp,
                                             const InsertionPoint& point,
                                             SiteCoord target_w);
/// In-place variant reusing `cp`'s buffers. Fills xa and xb for every
/// cell but visits only the push chains, seeded at the gap's neighbours.
void compute_critical_positions(const LocalProblem& lp,
                                const InsertionPoint& point,
                                SiteCoord target_w, CriticalPositions& cp);

/// The target's x distance from its preferred x, in sites: the |x − pref|
/// term of the hinge cost (minimize_hinge_cost) and of the bound below.
inline double target_x_distance_sites(SiteCoord x, double pref_x) {
    return std::abs(static_cast<double>(x) - pref_x);
}

/// A point's cost in microns from its x cost in sites: x cost × site
/// width plus the target's own y move. Both evaluators and
/// cost_lower_bound_um end in this one expression.
inline double point_cost_um(const LocalProblem& lp,
                            const InsertionPoint& point,
                            const TargetSpec& target, double x_cost_sites) {
    const double y_abs = static_cast<double>(lp.y0() + point.k0);
    return x_cost_sites * lp.site_w_um() +
           std::abs(y_abs - target.pref_y) * lp.site_h_um();
}

/// A lower bound on both evaluators' cost_um at `point`: the target's own
/// move alone, i.e. its y cost plus the smallest |x − pref_x| over the
/// integers of [lo, hi]. Every hinge term is >= 0 and rounding is
/// monotone, so bound <= cost_um holds exactly in floating point
/// (DESIGN.md §2f). +infinity when lo > hi (no evaluator accepts the
/// point).
inline double cost_lower_bound_um(const LocalProblem& lp,
                                  const InsertionPoint& point,
                                  const TargetSpec& target) {
    if (point.lo > point.hi) {
        return std::numeric_limits<double>::infinity();
    }
    // The nearest integers to pref_x within [lo, hi]: the two neighbours
    // of the clamped preference (x − pref_x rounds monotonically in x).
    const double c =
        std::clamp(target.pref_x, static_cast<double>(point.lo),
                   static_cast<double>(point.hi));
    const double d = std::min(
        target_x_distance_sites(static_cast<SiteCoord>(std::floor(c)),
                                target.pref_x),
        target_x_distance_sites(static_cast<SiteCoord>(std::ceil(c)),
                                target.pref_x));
    return point_cost_um(lp, point, target, d);
}

/// An insertion-point evaluator: evaluate_insertion_point_approx or
/// evaluate_insertion_point_exact (the scratch-taking forms).
using PointEvaluator = Evaluation (*)(const LocalProblem&,
                                      const InsertionPoint&,
                                      const TargetSpec&, EvalScratch&);
PointEvaluator point_evaluator(bool exact);

/// The outcome of scanning a problem's enumerated insertion points.
struct PointScan {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    Evaluation eval;            ///< The winner's evaluation.
    std::size_t index = kNone;  ///< Winner; kNone when no point is feasible.
    std::size_t scored = 0;     ///< Points whose full evaluation ran.
    std::size_t skipped = 0;    ///< Points the cost bound excluded.

    bool found() const { return index != kNone; }
};

/// MLL's choice (paper §4): the feasible point of least cost, the first
/// one on ties, under the approximate or `exact` evaluator — exactly the
/// winner of scoring every point in index order. Only points that can
/// still win are scored (DESIGN.md §2f): the point of smallest
/// cost_lower_bound_um (first on ties) is scored first as the seed, then
/// one pass in index order skips a point whose bound is > the seed's cost
/// or >= the best cost so far. Runs on the calling thread in `scratch`.
/// scored + skipped == points.size().
MRLG_EFFECT_READONLY
PointScan scan_insertion_points(const LocalProblem& lp,
                                std::span<const InsertionPoint> points,
                                const TargetSpec& target, bool exact,
                                EvalScratch& scratch);

}  // namespace mrlg
