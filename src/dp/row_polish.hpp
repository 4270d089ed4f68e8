#pragma once
/// \file row_polish.hpp
/// Fixed-order single-row optimal placement (the classic detailed-placement
/// technique of Kahng/Tucker/Zelikovsky [9] and Pan/Viswanathan/Chu [8]
/// that the paper's introduction discusses): for one row segment whose cell
/// order is fixed, place every cell at the position minimizing the sum of
/// piecewise-linear costs (distance to each cell's wirelength-preferred x)
/// subject to non-overlap — solved exactly by cluster collapse (an
/// isotonic-regression / "clumping" argument).
///
/// The paper's point (§1): this only works when the row's cells belong to
/// that row alone. A multi-row cell couples rows, so segments containing
/// one are skipped — row_polish reports how much of the design is thereby
/// untouchable, which is precisely the motivation for MLL.

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

struct RowPolishStats {
    std::size_t segments_total = 0;
    std::size_t segments_polished = 0;
    /// Segments skipped because a multi-row cell crosses them — the
    /// fraction of the design single-row techniques cannot touch.
    std::size_t segments_skipped_multirow = 0;
    std::size_t segments_accepted = 0;
    double hpwl_before_um = 0.0;
    double hpwl_after_um = 0.0;
    int passes = 0;

    double improvement_pct() const {
        return hpwl_before_um > 0
                   ? (1.0 - hpwl_after_um / hpwl_before_um) * 100.0
                   : 0.0;
    }
};

/// Polishes every eligible segment, in up to two passes. Placement must be
/// legal on entry and stays legal (cells only shift within their segment,
/// order preserved).
RowPolishStats row_polish(Database& db, SegmentGrid& grid);

/// Exact fixed-order 1-D solve, exposed for testing: given widths, the
/// segment span, and each cell's preferred position, returns the
/// overlap-free, order-preserving positions minimizing Σ|x_i - pref_i|.
/// (Cluster collapse with median positions — L1 isotonic regression.)
std::vector<SiteCoord> solve_fixed_order_row(
    const std::vector<SiteCoord>& widths, Span span,
    const std::vector<double>& pref);

}  // namespace mrlg
