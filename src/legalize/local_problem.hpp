#pragma once
/// \file local_problem.hpp
/// The localized legalization problem of one MLL call (paper §2.1.3): the
/// window, one local segment per row (the non-blocked, non-local-cell-free
/// run closest to the window centre) and the local cells on those segments,
/// which are free to shift in x; every other cell is a frozen obstacle.
/// extract_local_region fills it from the segment grid, and every MLL stage
/// (min/max placement, interval construction, enumeration, evaluation,
/// realization) reads it; the Database is only touched when a chosen
/// solution is committed.
///
/// Layout: CSR. One flat array holds every row's cell indices back to back
/// (row k's header names its slice), and one flat pool holds every cell's
/// per-row positions (cell i's h entries start at LpCell::pos0). Cells,
/// rows and views refer to each other by index only, so copies and moves
/// are deep and never alias their source.
///
/// Cell order: cells are indexed in x order, ties broken by bottom row.
/// Every row list is therefore in ascending index order, so the sweeps of
/// min/max placement, critical positions and realization walk indices
/// 0..n-1 and back, with no sort.
///
/// Concurrency contract: extraction reads the segment grid (whose slots
/// carry each cell's geometry) and the Database's floorplan without
/// mutating them — never a Cell — and every buffer it fills lives in the
/// LocalProblem or the caller's WindowScratch. The legalizer's
/// region-parallel plan phase relies on this to extract many problems
/// concurrently against the shared grid — one LocalProblem per worker
/// thread, never shared across threads.

#include <cstdint>
#include <span>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// Shim: empty, and named only because bench_suite/ passes one to
/// LocalProblem::build; the next change to the benchmark (ROADMAP item 1)
/// drops it.
struct LocalProblemScratch {};

/// A local cell, indexed 0..num_cells-1 within the problem in x order,
/// ties broken by bottom row.
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

/// Reusable buffers for extract_local_region: the window snapshot and the
/// fixpoint's state. The legalizer extracts one problem per MLL attempt
/// (thousands per run); passing the same scratch to every call keeps them
/// at their high-water capacity instead of reallocating them each time. A
/// default-constructed scratch is always valid. Nothing here is sized by
/// the design — only by the window.
struct WindowScratch {
    /// One placed cell on one window row: its segment slot, copied once
    /// per extraction so the later passes never re-walk segment lists.
    /// Neither the copy nor anything after it reads a Cell.
    struct Entry : SegmentSlot {
        /// Entry of the same cell on its lowest snapshotted row: a cell's
        /// per-cell state (blocker mark, local index) lives there.
        int canon = 0;
    };
    /// One row-segment of the window: its sites clipped to the window and
    /// the entries of grid.cells_overlapping(base), in x order.
    struct Slice {
        SegmentId sid;
        Span base;
        int begin = 0;
        int end = 0;
    };
    /// A row's chosen local piece and the slice it was cut from.
    struct Pick {
        Span piece;
        int slice = -1;  ///< -1: no usable piece on this row.
    };

    std::vector<Entry> entries;
    std::vector<Slice> slices;
    std::vector<int> row_entries;  ///< Per row: first entry; height + 1.
    std::vector<int> row_slices;   ///< Per row: first slice; height + 1.
    std::vector<Pick> picks;
    std::vector<std::uint8_t> blocked;  ///< Per entry; read at `canon`.
    std::vector<int> local_of;          ///< Per entry; set at `canon`.
    /// Local cells' canonical entries in emission order: rows bottom-up,
    /// x order within a row.
    std::vector<int> locals;
    /// Counting-sort buckets over the window's x span: the first local
    /// index of each x (one more slot than the window is wide).
    std::vector<int> x_start;
};

/// The extracted local problem. Row k corresponds to absolute row y0 + k;
/// a row may be absent (no usable segment).
class LocalProblem {
public:
    /// Row k's local segment and its slice of the flat cell array.
    struct RowHeader {
        bool present = false;
        SiteCoord y = 0;
        Span span;
        /// Enclosing SegmentGrid segment; only the audit reads it.
        SegmentId segment;
        int begin = 0;
        int end = 0;
    };

    /// Shim: returns a copy of `problem`. Kept only because bench_suite/
    /// times it as its problem-build stage; ROADMAP item 1 drops it.
    static LocalProblem build(const Database& db, const LocalProblem& problem,
                              LocalProblemScratch* scratch = nullptr);

    /// The window as requested; rows outside the die are dropped.
    const Rect& window() const { return window_; }
    SiteCoord y0() const { return y0_; }
    int num_rows() const { return static_cast<int>(rows_.size()); }
    /// Shim: num_rows() under the name bench_suite/ calls; ROADMAP item 1
    /// drops it.
    int height() const { return num_rows(); }
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

    /// Fault injection for the audit tests ONLY. Never call from library
    /// code.
    RowHeader& mutable_row_for_test(int k) {
        return rows_[static_cast<std::size_t>(k)];
    }
    std::vector<int>& mutable_row_cell_pool_for_test() { return row_cells_; }
    std::vector<int>& mutable_pos_pool_for_test() { return pos_pool_; }

private:
    friend void extract_local_region(const Database&, const SegmentGrid&,
                                     const Rect&, int, WindowScratch&,
                                     LocalProblem&);

    Rect window_;
    SiteCoord y0_ = 0;
    std::vector<RowHeader> rows_;
    std::vector<int> row_cells_;
    std::vector<LpCell> cells_;
    std::vector<int> pos_pool_;
    double site_w_um_ = 1.0;
    double site_h_um_ = 1.0;
};

/// Extracts the localized problem inside `window` into `out`, reusing the
/// capacity of `out` and `scratch` (the MLL hot path).
///
/// The paper defines non-local cells in two layers (cells not fully inside
/// W, then cells inside W but not contained in the chosen local segments).
/// A cell of the second kind that overlaps a chosen local segment must
/// additionally *cut* it (it will not move, so its sites are unusable). We
/// run the selection to a fixpoint: blockers accumulate monotonically, so
/// this terminates. The pass that checks for a new blocker also emits the
/// rows, and restarts only when it finds one. All of it runs on a snapshot
/// of the window's row-segment slices, taken with one
/// SegmentGrid::cells_overlapping per row-segment, and the local indices
/// come from one counting sort on x: O(local cells + window width), no
/// comparison sort.
MRLG_EFFECT_READONLY
void extract_local_region(const Database& db, const SegmentGrid& grid,
                          const Rect& window, int fence_region,
                          WindowScratch& scratch, LocalProblem& out);

/// The same, into per-thread buffers that keep their capacity across
/// calls, returned as one exactly-sized copy. `scratch`, when given,
/// replaces the per-thread snapshot buffers; only bench_suite/ passes one
/// (a shim that ROADMAP item 1 drops).
MRLG_EFFECT_READONLY
LocalProblem extract_local_region(const Database& db, const SegmentGrid& grid,
                                  const Rect& window, int fence_region = 0,
                                  WindowScratch* scratch = nullptr);

}  // namespace mrlg
