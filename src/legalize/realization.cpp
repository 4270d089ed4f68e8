#include "legalize/realization.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

Realization realize_insertion(const LocalProblem& lp,
                              const InsertionPoint& point, SiteCoord xt,
                              SiteCoord target_w) {
    // Filled in per-thread buffers that keep their capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local Realization filled;
    thread_local RealizationScratch scratch;
    realize_insertion(lp, point, xt, target_w, filled, scratch);
    return filled;
}

void realize_insertion(const LocalProblem& lp, const InsertionPoint& point,
                       SiteCoord xt, SiteCoord target_w, Realization& r,
                       RealizationScratch& scratch) {
    MRLG_ASSERT(xt >= point.lo && xt <= point.hi,
                "target x outside the insertion point's feasible range");
    r.ok = false;
    r.xt = xt;
    r.moved_sites = 0.0;
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());
    PushMarks& marks = scratch.marks;

    // Right side: ascending x (ascending index) from the cells right of
    // the gap. R starts at the current position; pushes only ever increase
    // it. A cell that moved marks each right neighbour it now overlaps;
    // the rest keep their position, since the local placement is
    // overlap-free. R lives in r.new_x and is merged in place.
    std::vector<SiteCoord>& R = r.new_x;
    R.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        R[i] = lp.cell(static_cast<int>(i)).x;
    }
    mark_gap_neighbours(lp, point, false, marks);
    marks.sweep_ascending([&](const int ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = c.x;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            if (pos == gap_on_row(point, k)) {
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
        if (x == c.x) {
            return;
        }
        for (SiteCoord j = 0; j < c.h; ++j) {
            const std::span<const int> cells = lp.row(c.k0 + j).cells;
            const int pos = lp.pos_in_row(ci, j);
            if (pos + 1 < static_cast<int>(cells.size())) {
                const int rr = cells[static_cast<std::size_t>(pos + 1)];
                if (x + c.w > lp.cell(rr).x) {
                    marks.mark(rr);
                }
            }
        }
    });

    // Left side: descending x from the cells left of the gap, mirrored.
    std::vector<SiteCoord>& L = scratch.left;
    L.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        L[i] = lp.cell(static_cast<int>(i)).x;
    }
    mark_gap_neighbours(lp, point, true, marks);
    marks.sweep_descending([&](const int ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = c.x;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            const std::span<const int> row_cells = lp.row(k).cells;
            if (pos + 1 == gap_on_row(point, k)) {
                x = std::min<SiteCoord>(x, xt - c.w);
            } else if (pos + 1 < static_cast<int>(row_cells.size())) {
                const int rr = row_cells[static_cast<std::size_t>(pos + 1)];
                x = std::min<SiteCoord>(
                    x, L[static_cast<std::size_t>(rr)] - c.w);
            }
        }
        L[static_cast<std::size_t>(ci)] = x;
        if (x == c.x) {
            return;
        }
        for (SiteCoord j = 0; j < c.h; ++j) {
            const std::span<const int> cells = lp.row(c.k0 + j).cells;
            const int pos = lp.pos_in_row(ci, j);
            if (pos > 0) {
                const int l = cells[static_cast<std::size_t>(pos - 1)];
                const LpCell& lc = lp.cell(l);
                if (lc.x + lc.w > x) {
                    marks.mark(l);
                }
            }
        }
    });

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
