#include "legalize/realization.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

namespace {

bool is_comb_row(const InsertionPoint& p, int k) {
    return k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
}

}  // namespace

Realization realize_insertion(const LocalProblem& lp,
                              const InsertionPoint& point, SiteCoord xt,
                              SiteCoord target_w) {
    // Filled in per-thread buffers that keep their capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local Realization filled;
    thread_local std::vector<SiteCoord> left;
    realize_insertion(lp, point, xt, target_w, filled, left);
    return filled;
}

void realize_insertion(const LocalProblem& lp, const InsertionPoint& point,
                       SiteCoord xt, SiteCoord target_w, Realization& r,
                       std::vector<SiteCoord>& L) {
    MRLG_ASSERT(xt >= point.lo && xt <= point.hi,
                "target x outside the insertion point's feasible range");
    r.ok = false;
    r.xt = xt;
    r.moved_sites = 0.0;
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());

    // Right side: ascending x (ascending index). R starts at the current
    // position; pushes only ever increase it. R lives in r.new_x and is
    // merged in place.
    std::vector<SiteCoord>& R = r.new_x;
    R.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        R[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (int ci = 0; ci < static_cast<int>(n); ++ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = R[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            if (is_comb_row(point, k) &&
                pos == point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::max<SiteCoord>(x, xt + target_w);
            } else if (pos > 0) {
                const int l =
                    lp.row(k).cells[static_cast<std::size_t>(pos - 1)];
                const LpCell& lc = lp.cell(l);
                x = std::max<SiteCoord>(
                    x, R[static_cast<std::size_t>(l)] + lc.w);
            }
        }
        R[static_cast<std::size_t>(ci)] = x;
    }

    // Left side: descending x.
    L.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        L[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (int ci = static_cast<int>(n); ci-- > 0;) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = L[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            const std::span<const int> row_cells = lp.row(k).cells;
            if (is_comb_row(point, k) &&
                pos + 1 ==
                    point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::min<SiteCoord>(x, xt - c.w);
            } else if (pos + 1 < static_cast<int>(row_cells.size())) {
                const int rr = row_cells[static_cast<std::size_t>(pos + 1)];
                x = std::min<SiteCoord>(
                    x, L[static_cast<std::size_t>(rr)] - c.w);
            }
        }
        L[static_cast<std::size_t>(ci)] = x;
    }

    // Merge: a cell may move left or right, never both (valid insertion
    // points have disjoint push sets).
    for (std::size_t i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(static_cast<int>(i));
        const bool moved_left = L[i] < c.x;
        const bool moved_right = R[i] > c.x;
        MRLG_ASSERT(!(moved_left && moved_right),
                    "cell pushed in both directions — invalid insertion "
                    "point slipped through enumeration");
        const SiteCoord nx = moved_left ? L[i] : R[i];
        MRLG_ASSERT(nx >= c.xl && nx <= c.xr,
                    "pushed cell left its feasible range");
        r.new_x[i] = nx;
        r.moved_sites += static_cast<double>(std::abs(nx - c.x));
    }
    r.ok = true;
}

}  // namespace mrlg
