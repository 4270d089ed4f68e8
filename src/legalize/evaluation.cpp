#include "legalize/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace mrlg {

namespace {

/// Post-insertion right neighbour of local cell `ci` on local row `k`:
/// returns the neighbour cell index, or -2 when the neighbour is the
/// target, or -1 when there is none (segment wall).
int right_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                   int k) {
    const int pos = lp.pos_in_row(ci, k - lp.cell(ci).k0);
    const std::span<const int> row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos + 1 == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the right
    }
    if (pos + 1 < static_cast<int>(row_cells.size())) {
        return row_cells[static_cast<std::size_t>(pos + 1)];
    }
    return -1;
}

/// Post-insertion left neighbour; same encoding as right_neighbor.
int left_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                  int k) {
    const int pos = lp.pos_in_row(ci, k - lp.cell(ci).k0);
    const std::span<const int> row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the left
    }
    if (pos > 0) {
        return row_cells[static_cast<std::size_t>(pos - 1)];
    }
    return -1;
}

}  // namespace

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

    // Suffix sums of a (for sum of a_i > x), prefix sums of b.
    std::vector<double>& a_suffix = scratch.a_suffix;
    a_suffix.assign(a.size() + 1, 0.0);
    for (std::size_t i = a.size(); i-- > 0;) {
        a_suffix[i] = a_suffix[i + 1] + static_cast<double>(a[i]);
    }
    std::vector<double>& b_prefix = scratch.b_prefix;
    b_prefix.assign(b.size() + 1, 0.0);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b_prefix[i + 1] = b_prefix[i] + static_cast<double>(b[i]);
    }

    auto cost_at = [&](SiteCoord x) -> double {
        // sum over a_i > x of (a_i - x)
        const auto ita = std::upper_bound(a.begin(), a.end(), x);
        const std::size_t ia = static_cast<std::size_t>(ita - a.begin());
        const double ca = a_suffix[ia] - static_cast<double>(a.size() - ia) *
                                             static_cast<double>(x);
        // sum over b_j < x of (x - b_j)
        const auto itb = std::lower_bound(b.begin(), b.end(), x);
        const std::size_t ib = static_cast<std::size_t>(itb - b.begin());
        const double cb =
            static_cast<double>(ib) * static_cast<double>(x) - b_prefix[ib];
        return ca + cb + target_x_distance_sites(x, hinges.pref);
    };

    // Candidate positions: every breakpoint clamped into [lo, hi].
    std::vector<SiteCoord>& cand = scratch.cand;
    cand.clear();
    cand.push_back(lo);
    cand.push_back(hi);
    auto push_clamped = [&](double v) {
        const double c = std::clamp(v, static_cast<double>(lo),
                                    static_cast<double>(hi));
        cand.push_back(static_cast<SiteCoord>(std::floor(c)));
        cand.push_back(static_cast<SiteCoord>(std::ceil(c)));
    };
    for (const SiteCoord v : a) {
        push_clamped(static_cast<double>(v));
    }
    for (const SiteCoord v : b) {
        push_clamped(static_cast<double>(v));
    }
    push_clamped(hinges.pref);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    SiteCoord best_x = lo;
    double best_cost = std::numeric_limits<double>::max();
    for (const SiteCoord x : cand) {
        if (x < lo || x > hi) {
            continue;
        }
        const double c = cost_at(x);
        const double d_pref = target_x_distance_sites(x, hinges.pref);
        const double best_d_pref =
            target_x_distance_sites(best_x, hinges.pref);
        if (c < best_cost - 1e-9 ||
            (std::abs(c - best_cost) <= 1e-9 &&
             (d_pref < best_d_pref - 1e-9 ||
              (std::abs(d_pref - best_d_pref) <= 1e-9 && x < best_x)))) {
            best_cost = c;
            best_x = x;
        }
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

    // Push-left thresholds: process cells right-to-left (descending index
    // is descending x); a cell is pushed left when its post-insertion
    // right neighbour (or the target) forces it:
    // xa_k = x_k + w_k + max over pushers r of (xa_r - x_r), with the
    // target contributing 0.
    for (int ci = static_cast<int>(n); ci-- > 0;) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMin;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int nb = right_neighbor(lp, point, ci, k);
            if (nb == -2) {
                best = std::max<SiteCoord>(best, 0);
                any = true;
            } else if (nb >= 0 &&
                       cp.xa[static_cast<std::size_t>(nb)] != kSiteCoordMin) {
                best = std::max<SiteCoord>(
                    best, cp.xa[static_cast<std::size_t>(nb)] -
                              lp.cell(nb).x);
                any = true;
            }
        }
        if (any) {
            cp.xa[static_cast<std::size_t>(ci)] = c.x + c.w + best;
        }
    }

    // Push-right thresholds, mirrored:  xb_k = x_k + min over pushers l of
    // (xb_l - x_l - w_l), target contributing -target_w.
    for (int ci = 0; ci < static_cast<int>(n); ++ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMax;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int nb = left_neighbor(lp, point, ci, k);
            if (nb == -2) {
                best = std::min<SiteCoord>(best, -target_w);
                any = true;
            } else if (nb >= 0 &&
                       cp.xb[static_cast<std::size_t>(nb)] != kSiteCoordMax) {
                const LpCell& l = lp.cell(nb);
                best = std::min<SiteCoord>(
                    best,
                    cp.xb[static_cast<std::size_t>(nb)] - l.x - l.w);
                any = true;
            }
        }
        if (any) {
            cp.xb[static_cast<std::size_t>(ci)] = c.x + best;
        }
    }
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
    for (std::size_t i = 0; i < cp.xa.size(); ++i) {
        const bool has_a = cp.xa[i] != kSiteCoordMin;
        const bool has_b = cp.xb[i] != kSiteCoordMax;
        MRLG_ASSERT(!(has_a && has_b),
                    "cell reachable from both push directions — "
                    "inconsistent insertion point");
        if (has_a) {
            hinges.a.push_back(cp.xa[i]);
        } else if (has_b) {
            hinges.b.push_back(cp.xb[i]);
        }
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
