#pragma once
/// \file local_problem.hpp
/// Dense, index-based view of one localized legalization problem. All MLL
/// stages (min/max placement, interval construction, enumeration,
/// evaluation, realization) operate on this structure; the Database is only
/// touched when a chosen solution is committed.
///
/// Layout: CSR, like LocalRegion. One flat array holds every row's cell
/// indices back to back (row k's header names its slice), and one flat
/// pool holds every cell's per-row positions (cell i's h entries start at
/// LpCell::pos0). Cells, rows and views refer to each other by index only,
/// so copies and moves are deep and never alias their source.
///
/// Concurrency contract: build() reads the region (whose local cells carry
/// their geometry) and the Database's floorplan without mutating them —
/// never a Cell — and every buffer it fills lives in the LocalProblem or
/// the caller-supplied scratch. The legalizer's region-parallel plan phase
/// relies on this to build many LocalProblems concurrently against the
/// shared grid — one LocalProblem + scratch per worker thread, never
/// shared across threads.

#include <cstdint>
#include <span>
#include <vector>

#include "db/database.hpp"
#include "legalize/local_region.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// Reusable buffers for LocalProblem::build (one build per MLL attempt).
struct LocalProblemScratch {
    /// (x, index) sort keys for by_x(), packed so one integer sort orders
    /// them.
    std::vector<std::uint64_t> by_x_keys;
};

/// A local cell, indexed 0..num_cells-1 within the problem.
struct LpCell {
    CellId id;
    SiteCoord x = 0;  ///< Current x (site units).
    SiteCoord w = 0;
    SiteCoord y = 0;  ///< Current bottom row (absolute).
    SiteCoord h = 0;
    SiteCoord xl = 0;  ///< Leftmost feasible x (filled by compute_minmax).
    SiteCoord xr = 0;  ///< Rightmost feasible x (filled by compute_minmax).
    int k0 = 0;        ///< Local row index of the bottom row.
    /// Offset of this cell's h row positions in the pos_in_row pool.
    int pos0 = 0;
};

/// A local row: its span and the local cells crossing it, in x order. A
/// view into its LocalProblem, made on demand by LocalProblem::row().
struct LpRow {
    SiteCoord y = 0;  ///< Absolute row index.
    Span span;        ///< Usable x range (walls at both ends).
    std::span<const int> cells;  ///< Local-cell indices, ordered by x.
};

/// The extracted local problem. Row k corresponds to absolute row y0 + k.
class LocalProblem {
public:
    /// Row k's span and its slice of the flat cell array.
    struct RowHeader {
        bool present = false;
        SiteCoord y = 0;
        Span span;
        int begin = 0;
        int end = 0;
    };

    MRLG_EFFECT_READONLY
    static LocalProblem build(const Database& db, const LocalRegion& region,
                              LocalProblemScratch* scratch = nullptr);

    /// In-place build: refills this problem from `region`, reusing the
    /// capacity of its arrays and of `scratch` (the MLL hot path).
    MRLG_EFFECT_READONLY
    void rebuild(const Database& db, const LocalRegion& region,
                 LocalProblemScratch& scratch);

    int num_rows() const { return static_cast<int>(rows_.size()); }
    bool has_row(int k) const {
        return k >= 0 && k < num_rows() &&
               rows_[static_cast<std::size_t>(k)].present;
    }
    LpRow row(int k) const {
        const RowHeader& h = rows_[static_cast<std::size_t>(k)];
        return LpRow{h.y, h.span,
                     std::span<const int>(
                         row_cells_.data() + h.begin,
                         static_cast<std::size_t>(h.end - h.begin))};
    }
    SiteCoord y0() const { return y0_; }

    const std::vector<LpCell>& cells() const { return cells_; }
    std::vector<LpCell>& mutable_cells() { return cells_; }
    const LpCell& cell(int i) const {
        return cells_[static_cast<std::size_t>(i)];
    }
    int num_cells() const { return static_cast<int>(cells_.size()); }

    /// Index of cell `i` in the cell list of row (k0 + j), 0 <= j < h.
    int pos_in_row(int i, int j) const {
        return pos_pool_[static_cast<std::size_t>(cell(i).pos0 + j)];
    }

    /// Cell indices sorted by current x ascending (ties by index). Shared
    /// by min/max placement and realization.
    const std::vector<int>& by_x() const { return by_x_; }

    double site_w_um() const { return site_w_um_; }
    double site_h_um() const { return site_h_um_; }

    /// The CSR arrays themselves, for the invariant auditor.
    const std::vector<RowHeader>& row_headers() const { return rows_; }
    const std::vector<int>& row_cell_pool() const { return row_cells_; }
    const std::vector<int>& pos_pool() const { return pos_pool_; }

private:
    SiteCoord y0_ = 0;
    std::vector<RowHeader> rows_;
    std::vector<int> row_cells_;
    std::vector<LpCell> cells_;
    std::vector<int> pos_pool_;
    std::vector<int> by_x_;
    double site_w_um_ = 1.0;
    double site_h_um_ = 1.0;
};

}  // namespace mrlg
