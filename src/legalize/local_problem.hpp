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
/// Cell order: cells are indexed in x order, ties broken by bottom row,
/// as the region lists them. Every row list is therefore in ascending
/// index order, so the sweeps of min/max placement, critical positions and realization
/// walk indices 0..n-1 and back, with no sort.
///
/// Concurrency contract: build() reads the region (whose local cells carry
/// their geometry) and the Database's floorplan without mutating them —
/// never a Cell — and every buffer it fills lives in the LocalProblem. The
/// legalizer's region-parallel plan phase relies on this to build many
/// LocalProblems concurrently against the shared grid — one LocalProblem
/// per worker thread, never shared across threads.

#include <span>
#include <vector>

#include "db/database.hpp"
#include "legalize/local_region.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// Empty: LocalProblem::build is a linear copy that needs no buffer. Kept
/// only because bench_suite/ passes one to build(); the next change to the
/// benchmark (ROADMAP item 1) drops it.
struct LocalProblemScratch {};

/// A local cell, indexed 0..num_cells-1 within the problem in x order,
/// ties broken by bottom row (the order of LocalRegion::local_cells()).
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

    /// `scratch` is unused (see LocalProblemScratch).
    MRLG_EFFECT_READONLY
    static LocalProblem build(const Database& db, const LocalRegion& region,
                              LocalProblemScratch* scratch = nullptr);

    /// In-place build: refills this problem from `region`, reusing the
    /// capacity of its arrays (the MLL hot path).
    MRLG_EFFECT_READONLY
    void rebuild(const Database& db, const LocalRegion& region);

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
    double site_w_um_ = 1.0;
    double site_h_um_ = 1.0;
};

}  // namespace mrlg
