#pragma once
/// \file local_region.hpp
/// Local region extraction (paper §2.1.3): given a window W, select one
/// "local segment" per row (the non-blocked, non-local-cell-free run
/// closest to the window centre) and classify cells into local (free to
/// shift in x during MLL) and non-local (frozen, acting as obstacles).

#include <cstdint>
#include <span>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// One row's selected local segment. A view into its LocalRegion: valid
/// while the region lives and is not refilled.
struct LocalRow {
    SiteCoord y = 0;           ///< Absolute row index.
    Span span;                 ///< Absolute x range of the local segment.
    SegmentId global_segment;  ///< Enclosing SegmentGrid segment.
    /// Local cells whose footprint crosses this row, ordered by x.
    std::span<const CellId> cells;
    /// local[i] = index of cells[i] in LocalRegion::local_cells().
    std::span<const int> local;
};

class LocalRegion;
struct LocalRegionScratch;

/// Extracts the localized problem inside `window` into `out`, reusing the
/// capacity of `out` and `scratch` (the MLL hot path; see the by-value
/// overload below for the contract).
MRLG_EFFECT_READONLY
void extract_local_region(const Database& db, const SegmentGrid& grid,
                          const Rect& window, int fence_region,
                          LocalRegionScratch& scratch, LocalRegion& out);

/// Extracted localized placement problem, stored CSR: one flat cell array
/// holds every row's x-ordered local cells back to back, and row k's
/// header names its [begin, end) slice. Row k corresponds to absolute row
/// y0() + k; a row may be absent (no usable segment). Copies and moves are
/// deep — LocalRow views are made on demand and never stored.
class LocalRegion {
public:
    /// Row k's segment and its slice of the flat cell arrays.
    struct RowHeader {
        bool present = false;
        SiteCoord y = 0;
        Span span;
        SegmentId global_segment;
        int begin = 0;  ///< First index into the flat cell arrays.
        int end = 0;    ///< One past the last.
    };

    const Rect& window() const { return window_; }
    SiteCoord y0() const { return y0_; }
    int height() const { return static_cast<int>(rows_.size()); }

    bool has_row(int k) const {
        return k >= 0 && k < height() &&
               rows_[static_cast<std::size_t>(k)].present;
    }
    LocalRow row(int k) const {
        const RowHeader& h = rows_[static_cast<std::size_t>(k)];
        const auto n = static_cast<std::size_t>(h.end - h.begin);
        const auto b = static_cast<std::size_t>(h.begin);
        return LocalRow{h.y, h.span, h.global_segment,
                        std::span<const CellId>(row_cells_.data() + b, n),
                        std::span<const int>(row_local_.data() + b, n)};
    }

    /// All distinct local cells, sorted by id (a multi-row cell is listed
    /// once). A local cell's index in this list is its LocalProblem index.
    const std::vector<CellId>& local_cells() const { return local_cells_; }

    /// Local row index for absolute row y, or -1 when outside the region.
    int row_index(SiteCoord y) const {
        const SiteCoord k = y - y0_;
        return (k >= 0 && k < static_cast<SiteCoord>(rows_.size()))
                   ? static_cast<int>(k)
                   : -1;
    }

    /// The CSR arrays themselves, for the invariant auditor.
    const std::vector<RowHeader>& row_headers() const { return rows_; }
    const std::vector<CellId>& row_cell_pool() const { return row_cells_; }
    const std::vector<int>& row_local_pool() const { return row_local_; }

    /// Fault injection for the audit tests ONLY. Never call from library
    /// code.
    RowHeader& mutable_row_for_test(int k) {
        return rows_[static_cast<std::size_t>(k)];
    }
    std::vector<int>& mutable_local_pool_for_test() { return row_local_; }

private:
    friend void extract_local_region(const Database&, const SegmentGrid&,
                                     const Rect&, int, LocalRegionScratch&,
                                     LocalRegion&);

    /// Empties the region for a new window, keeping every capacity.
    void reset(Rect window, SiteCoord y0, std::size_t height) {
        window_ = window;
        y0_ = y0;
        rows_.assign(height, RowHeader{});
        row_cells_.clear();
        row_local_.clear();
        local_cells_.clear();
    }

    Rect window_;
    SiteCoord y0_ = 0;
    std::vector<RowHeader> rows_;
    std::vector<CellId> row_cells_;
    std::vector<int> row_local_;
    std::vector<CellId> local_cells_;
};

/// Reusable buffers for extract_local_region. The legalizer extracts one
/// region per MLL attempt (thousands per run); passing the same scratch to
/// every call keeps the window snapshot at its high-water capacity instead
/// of reallocating it each time. A default-constructed scratch is always
/// valid. Nothing here is sized by the design — only by the window.
struct LocalRegionScratch {
    /// One placed cell on one window row, copied from the grid once per
    /// extraction so the later passes never re-walk segment lists or read
    /// the Database.
    struct Entry {
        CellId id;
        SiteCoord x = 0;
        SiteCoord w = 0;
        SiteCoord y = 0;
        SiteCoord h = 0;
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
    std::vector<std::pair<CellId, int>> locals;  ///< (id, canon) pairs.
    std::vector<Span> pieces;    ///< per-segment piece accumulator.
    std::vector<Span> span_tmp;  ///< subtract() double-buffer.
};

/// Conservative bound on everything one legalization attempt (direct
/// placement try + MLL plan/commit) may read or write, as row/x spans in
/// site units. Two attempts whose footprints are disjoint can be planned
/// against the same frozen grid and committed in either order with
/// identical results — the invariant behind the legalizer's region-parallel
/// pipeline (see legalize/pipeline.hpp for the ledger that enforces it).
struct AttemptFootprint {
    Span rows;  ///< Absolute row range [lo, hi).
    Span x;     ///< Site range [lo, hi).

    bool overlaps(const AttemptFootprint& o) const {
        return rows.overlaps(o.rows) && x.overlaps(o.x);
    }
};

/// Computes the footprint of an attempt with MLL window `window` and
/// direct-placement rectangle `fitted` (the nearest_aligned_position slot,
/// which clamping can push outside the window).
///
/// Why this bounds the attempt:
///  * Rows: extraction reads only segments of rows intersecting `window`
///    (extract_local_region clips to it) and the direct try reads only
///    `fitted`'s rows; realization shifts cells whose slices lie in chosen
///    pieces, i.e. inside the window, and the commit registers the target
///    inside window ∪ fitted. No read or write leaves hull(window, fitted)
///    vertically.
///  * X: every piece is clipped to the window x-span and the direct try is
///    confined to fitted's x-span, but *reads* include any cell whose
///    slice overlaps those spans — a cell of width ≤ max_cell_width
///    overlapping [lo, hi) has its origin in [lo - (max_cell_width - 1),
///    hi), and its full slice lies in [lo - (max_cell_width - 1),
///    hi + (max_cell_width - 1)). Padding the hull by max_cell_width - 1
///    on both sides therefore covers the read set; writes are a subset.
AttemptFootprint compute_attempt_footprint(const Rect& window,
                                           const Rect& fitted,
                                           SiteCoord max_cell_width);

/// Extracts the localized problem inside `window`.
///
/// Implementation note: the paper defines non-local cells in two layers
/// (cells not fully inside W, then cells inside W but not contained in the
/// chosen local segments). A cell of the second kind that overlaps a chosen
/// local segment must additionally *cut* it (it will not move, so its sites
/// are unusable). We run the selection to a fixpoint: blockers accumulate
/// monotonically, so this terminates. All of it runs on a snapshot of the
/// window's row-segment slices, taken with one
/// SegmentGrid::cells_overlapping per row-segment.
MRLG_EFFECT_READONLY
LocalRegion extract_local_region(const Database& db, const SegmentGrid& grid,
                                 const Rect& window, int fence_region = 0,
                                 LocalRegionScratch* scratch = nullptr);

}  // namespace mrlg
