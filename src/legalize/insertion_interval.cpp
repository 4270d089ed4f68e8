#include "legalize/insertion_interval.hpp"

namespace mrlg {

std::vector<InsertionInterval> build_insertion_intervals(
    const LocalProblem& lp, SiteCoord target_w) {
    // Filled in a per-thread buffer, returned as an exactly-sized copy.
    thread_local std::vector<InsertionInterval> filled;
    build_insertion_intervals(lp, target_w, filled);
    return filled;
}

void build_insertion_intervals(const LocalProblem& lp, SiteCoord target_w,
                               std::vector<InsertionInterval>& out) {
    out.clear();
    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const LpRow row = lp.row(k);
        const int n = static_cast<int>(row.cells.size());
        for (int gap = 0; gap <= n; ++gap) {
            InsertionInterval iv;
            iv.k = k;
            iv.gap = gap;
            if (gap == 0) {
                iv.lo = row.span.lo;
            } else {
                const LpCell& left =
                    lp.cell(row.cells[static_cast<std::size_t>(gap - 1)]);
                iv.lo = left.xl + left.w;
            }
            if (gap == n) {
                iv.hi = row.span.hi - target_w;
            } else {
                const LpCell& right =
                    lp.cell(row.cells[static_cast<std::size_t>(gap)]);
                iv.hi = right.xr - target_w;
            }
            if (iv.hi >= iv.lo) {
                out.push_back(iv);
            }
        }
    }
}

bool bind_point_to_intervals(const std::vector<InsertionInterval>& intervals,
                             int k0, std::span<const int> gaps,
                             SiteCoord& lo, SiteCoord& hi) {
    lo = kSiteCoordMin;
    hi = kSiteCoordMax;
    std::vector<bool> matched(gaps.size(), false);
    for (const InsertionInterval& iv : intervals) {
        const int j = iv.k - k0;
        if (j >= 0 && j < static_cast<int>(gaps.size()) &&
            iv.gap == gaps[static_cast<std::size_t>(j)]) {
            matched[static_cast<std::size_t>(j)] = true;
            lo = std::max(lo, iv.lo);
            hi = std::min(hi, iv.hi);
        }
    }
    for (const bool m : matched) {
        if (!m) {
            return false;
        }
    }
    return !gaps.empty();
}

}  // namespace mrlg
