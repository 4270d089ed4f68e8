#include "legalize/minmax_placement.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

void compute_minmax_placement(LocalProblem& lp) {
    auto& cells = lp.mutable_cells();

    // Leftmost: sweep cells in ascending x. A row's frontier (first free
    // site) is its span start or the packed right edge of the cell's left
    // neighbour in that row — the last cell of the row the sweep packed,
    // since row lists are x-ordered. A cell's leftmost x is the max
    // frontier over the rows it spans.
    for (const int ci : lp.by_x()) {
        LpCell& c = cells[static_cast<std::size_t>(ci)];
        SiteCoord xl = kSiteCoordMin;
        for (int j = 0; j < c.h; ++j) {
            const int pos = lp.pos_in_row(ci, j);
            if (pos > 0) {
                const LpCell& l = cells[static_cast<std::size_t>(
                    lp.row(c.k0 + j).cells[static_cast<std::size_t>(pos - 1)])];
                xl = std::max<SiteCoord>(l.xl + l.w, xl);
            } else {
                xl = std::max(lp.row(c.k0 + j).span.lo, xl);
            }
        }
        c.xl = xl;
        MRLG_ASSERT(c.xl <= c.x, "leftmost packing exceeds current position "
                                 "(input placement not legal?)");
    }

    // Rightmost: mirror sweep in descending x.
    for (auto it = lp.by_x().rbegin(); it != lp.by_x().rend(); ++it) {
        const int ci = *it;
        LpCell& c = cells[static_cast<std::size_t>(ci)];
        SiteCoord hi = kSiteCoordMax;
        for (int j = 0; j < c.h; ++j) {
            const std::span<const int> row = lp.row(c.k0 + j).cells;
            const auto next = static_cast<std::size_t>(lp.pos_in_row(ci, j) + 1);
            if (next < row.size()) {
                hi = std::min(cells[static_cast<std::size_t>(row[next])].xr, hi);
            } else {
                hi = std::min(lp.row(c.k0 + j).span.hi, hi);
            }
        }
        c.xr = hi - c.w;
        MRLG_ASSERT(c.xr >= c.x, "rightmost packing below current position "
                                 "(input placement not legal?)");
    }
}

}  // namespace mrlg
