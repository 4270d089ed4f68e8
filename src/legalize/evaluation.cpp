#include "legalize/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.hpp"

namespace mrlg {

std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi) {
    EvalScratch scratch;
    return minimize_hinge_cost(hinges, lo, hi, scratch);
}

std::pair<SiteCoord, double> minimize_hinge_cost(const HingeSet& hinges,
                                                 SiteCoord lo, SiteCoord hi,
                                                 EvalScratch& scratch) {
    MRLG_ASSERT(lo <= hi, "empty feasible range");
    std::vector<SiteCoord>& a = scratch.a_sorted;
    std::vector<SiteCoord>& b = scratch.b_sorted;
    a.assign(hinges.a.begin(), hinges.a.end());
    b.assign(hinges.b.begin(), hinges.b.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    // The candidates are lo, hi, every breakpoint clamped into [lo, hi]
    // and the two integers around the clamped pref. One walk visits them
    // in ascending order, each once, keeping ka = #{a_i <= x} with the sum
    // of those a_i and kb = #{b_j < x} with theirs. Every partial sum is
    // an integer far below 2^53, so the hinge sum converts to a double
    // exactly and each cost rounds once, when |x - pref| is added.
    const double pc = std::clamp(hinges.pref, static_cast<double>(lo),
                                 static_cast<double>(hi));
    const SiteCoord pref_floor = static_cast<SiteCoord>(std::floor(pc));
    const SiteCoord pref_ceil = static_cast<SiteCoord>(std::ceil(pc));
    std::int64_t a_total = 0;
    for (const SiteCoord v : a) {
        a_total += v;
    }
    std::size_t ka = 0;
    std::size_t kb = 0;
    std::int64_t a_le = 0;  // sum of a[0..ka)
    std::int64_t b_lt = 0;  // sum of b[0..kb)

    SiteCoord best_x = lo;
    double best_cost = std::numeric_limits<double>::max();
    for (SiteCoord x = lo;;) {
        while (ka < a.size() && a[ka] <= x) {
            a_le += a[ka++];
        }
        while (kb < b.size() && b[kb] < x) {
            b_lt += b[kb++];
        }
        // sum over a_i > x of (a_i - x), plus sum over b_j < x of (x - b_j)
        const std::int64_t hinge_sum =
            (a_total - a_le) -
            static_cast<std::int64_t>(a.size() - ka) * x +
            static_cast<std::int64_t>(kb) * x - b_lt;
        const double d_pref = target_x_distance_sites(x, hinges.pref);
        const double c = static_cast<double>(hinge_sum) + d_pref;
        const double best_d_pref =
            target_x_distance_sites(best_x, hinges.pref);
        if (c < best_cost - 1e-9 ||
            (std::abs(c - best_cost) <= 1e-9 &&
             (d_pref < best_d_pref - 1e-9 ||
              (std::abs(d_pref - best_d_pref) <= 1e-9 && x < best_x)))) {
            best_cost = c;
            best_x = x;
        }
        if (x == hi) {
            break;
        }
        // The next candidate: the least of hi, the first a_i > x, the
        // first b_j > x and the pref integers above x (a clamped
        // breakpoint above x < hi is min(v, hi)).
        SiteCoord next = hi;
        if (ka < a.size()) {
            next = std::min(next, a[ka]);
        }
        std::size_t jb = kb;
        while (jb < b.size() && b[jb] <= x) {
            ++jb;
        }
        if (jb < b.size()) {
            next = std::min(next, b[jb]);
        }
        if (pref_floor > x) {
            next = std::min(next, pref_floor);
        } else if (pref_ceil > x) {
            next = std::min(next, pref_ceil);
        }
        x = next;
    }
    return {best_x, best_cost};
}

Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target) {
    EvalScratch scratch;
    return evaluate_insertion_point_approx(lp, point, target, scratch);
}

Evaluation evaluate_insertion_point_approx(const LocalProblem& lp,
                                           const InsertionPoint& point,
                                           const TargetSpec& target,
                                           EvalScratch& scratch) {
    Evaluation ev;
    if (point.lo > point.hi) {
        return ev;
    }
    HingeSet& hinges = scratch.hinges;
    hinges.a.clear();
    hinges.b.clear();
    hinges.pref = target.pref_x;
    const int ht = static_cast<int>(point.gaps.size());
    // One hinge per neighbouring CELL, not per combination row: a
    // multi-row neighbour adjacent to the target in several rows still
    // moves only once, so per-row hinges would double-count its
    // displacement (and the estimate would stop being a lower bound on
    // the realized cost). ht is tiny; linear membership checks suffice.
    std::vector<int>& seen_left = scratch.seen_left;
    std::vector<int>& seen_right = scratch.seen_right;
    seen_left.clear();
    seen_right.clear();
    for (int j = 0; j < ht; ++j) {
        const std::span<const int> row_cells = lp.row(point.k0 + j).cells;
        const int gap = point.gaps[static_cast<std::size_t>(j)];
        if (gap > 0) {
            const int li = row_cells[static_cast<std::size_t>(gap - 1)];
            if (std::find(seen_left.begin(), seen_left.end(), li) ==
                seen_left.end()) {
                seen_left.push_back(li);
                const LpCell& left = lp.cell(li);
                hinges.a.push_back(left.x + left.w);
            }
        }
        if (gap < static_cast<int>(row_cells.size())) {
            const int ri = row_cells[static_cast<std::size_t>(gap)];
            if (std::find(seen_right.begin(), seen_right.end(), ri) ==
                seen_right.end()) {
                seen_right.push_back(ri);
                const LpCell& right = lp.cell(ri);
                hinges.b.push_back(right.x - target.w);
            }
        }
    }
    const auto [xt, cost_sites] =
        minimize_hinge_cost(hinges, point.lo, point.hi, scratch);
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = point_cost_um(lp, point, target, cost_sites);
    return ev;
}

CriticalPositions compute_critical_positions(const LocalProblem& lp,
                                             const InsertionPoint& point,
                                             SiteCoord target_w) {
    CriticalPositions cp;
    compute_critical_positions(lp, point, target_w, cp);
    return cp;
}

void compute_critical_positions(const LocalProblem& lp,
                                const InsertionPoint& point,
                                SiteCoord target_w, CriticalPositions& cp) {
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());
    cp.xa.assign(n, kSiteCoordMin);
    cp.xb.assign(n, kSiteCoordMax);
    cp.left_chain.clear();
    cp.right_chain.clear();

    // Push-left thresholds, right-to-left along the chains: a cell is
    // pushed left when its post-insertion right neighbour (or the target)
    // forces it:
    // xa_k = x_k + w_k + max over pushers r of (xa_r - x_r), with the
    // target contributing 0. A visited cell was marked by a pusher, so it
    // has one; it marks every cell it pushes, its left neighbours.
    mark_gap_neighbours(lp, point, true, cp.marks);
    cp.marks.sweep_descending([&](const int ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMin;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            const std::span<const int> cells = lp.row(k).cells;
            const int gap = gap_on_row(point, k);
            if (pos + 1 == gap) {
                best = std::max<SiteCoord>(best, 0);
            } else if (pos + 1 < static_cast<int>(cells.size())) {
                const int r = cells[static_cast<std::size_t>(pos + 1)];
                if (cp.xa[static_cast<std::size_t>(r)] != kSiteCoordMin) {
                    best = std::max<SiteCoord>(
                        best,
                        cp.xa[static_cast<std::size_t>(r)] - lp.cell(r).x);
                }
            }
            if (pos != gap && pos > 0) {
                cp.marks.mark(cells[static_cast<std::size_t>(pos - 1)]);
            }
        }
        MRLG_DCHECK(best != kSiteCoordMin, "push-chain cell has no pusher");
        cp.xa[static_cast<std::size_t>(ci)] = c.x + c.w + best;
        cp.left_chain.push_back(ci);
    });

    // Push-right thresholds, mirrored:  xb_k = x_k + min over pushers l of
    // (xb_l - x_l - w_l), target contributing -target_w.
    mark_gap_neighbours(lp, point, false, cp.marks);
    cp.marks.sweep_ascending([&](const int ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMax;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            const std::span<const int> cells = lp.row(k).cells;
            const int gap = gap_on_row(point, k);
            if (pos == gap) {
                best = std::min<SiteCoord>(best, -target_w);
            } else if (pos > 0) {
                const int l = cells[static_cast<std::size_t>(pos - 1)];
                if (cp.xb[static_cast<std::size_t>(l)] != kSiteCoordMax) {
                    const LpCell& lc = lp.cell(l);
                    best = std::min<SiteCoord>(
                        best,
                        cp.xb[static_cast<std::size_t>(l)] - lc.x - lc.w);
                }
            }
            if (pos + 1 != gap && pos + 1 < static_cast<int>(cells.size())) {
                cp.marks.mark(cells[static_cast<std::size_t>(pos + 1)]);
            }
        }
        MRLG_DCHECK(best != kSiteCoordMax, "push-chain cell has no pusher");
        cp.xb[static_cast<std::size_t>(ci)] = c.x + best;
        cp.right_chain.push_back(ci);
    });
}

Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target) {
    EvalScratch scratch;
    return evaluate_insertion_point_exact(lp, point, target, scratch);
}

Evaluation evaluate_insertion_point_exact(const LocalProblem& lp,
                                          const InsertionPoint& point,
                                          const TargetSpec& target,
                                          EvalScratch& scratch) {
    Evaluation ev;
    if (point.lo > point.hi) {
        return ev;
    }
    compute_critical_positions(lp, point, target.w, scratch.cp);
    const CriticalPositions& cp = scratch.cp;
    HingeSet& hinges = scratch.hinges;
    hinges.a.clear();
    hinges.b.clear();
    hinges.pref = target.pref_x;
    // Only a cell on both chains can be reachable from both directions.
    for (const int i : cp.right_chain) {
        MRLG_ASSERT(cp.xa[static_cast<std::size_t>(i)] == kSiteCoordMin,
                    "cell reachable from both push directions — "
                    "inconsistent insertion point");
        hinges.b.push_back(cp.xb[static_cast<std::size_t>(i)]);
    }
    for (const int i : cp.left_chain) {
        hinges.a.push_back(cp.xa[static_cast<std::size_t>(i)]);
    }
    const auto [xt, cost_sites] =
        minimize_hinge_cost(hinges, point.lo, point.hi, scratch);
    ev.feasible = true;
    ev.xt = xt;
    ev.cost_um = point_cost_um(lp, point, target, cost_sites);
    return ev;
}

PointEvaluator point_evaluator(bool exact) {
    if (exact) {
        return &evaluate_insertion_point_exact;
    }
    return &evaluate_insertion_point_approx;
}

PointScan scan_insertion_points(const LocalProblem& lp,
                                std::span<const InsertionPoint> points,
                                const TargetSpec& target, bool exact,
                                EvalScratch& scratch) {
    if (points.empty()) {
        return {};
    }
    const PointEvaluator evaluate = point_evaluator(exact);
    // Every point's bound, and the seed: the first point of least bound.
    std::vector<double>& bound = scratch.bounds;
    bound.resize(points.size());
    std::size_t seed = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        bound[i] = cost_lower_bound_um(lp, points[i], target);
        if (bound[i] < bound[seed]) {
            seed = i;
        }
    }
    const Evaluation seed_eval = evaluate(lp, points[seed], target, scratch);
    const double seed_cost = seed_eval.feasible
                                 ? seed_eval.cost_um
                                 : std::numeric_limits<double>::infinity();

    // One pass in index order keeps the first point of least cost. The
    // winner W is never skipped: bound(W) <= cost(W) <= the seed's cost,
    // and every point scored before W costs strictly more than W (it
    // precedes W, so it would otherwise win).
    PointScan best;
    for (std::size_t i = 0; i < points.size(); ++i) {
        Evaluation ev;
        if (i == seed) {
            ev = seed_eval;
        } else if (bound[i] > seed_cost ||
                   (best.found() && bound[i] >= best.eval.cost_um)) {
            ++best.skipped;
            continue;
        } else {
            ev = evaluate(lp, points[i], target, scratch);
        }
        ++best.scored;
        if (ev.feasible && (!best.found() || ev.cost_um < best.eval.cost_um)) {
            best.eval = ev;
            best.index = i;
        }
    }
    return best;
}

}  // namespace mrlg
