#pragma once
/// \file segment.hpp
/// Segment model of paper §2.1.2: a segment is a maximal run of non-blocked
/// placement sites on one row. Every placed movable cell of height h has a
/// slot in the cell list of each of the h segments it crosses; lists are
/// kept sorted by cell x.
///
/// A slot carries a copy of its cell's geometry (x, width, bottom row,
/// height), so every list query — overlap ranges, free-region tests, the
/// MLL window snapshot — reads the 20-byte slots and never the Cell. The
/// copies stay exact because SegmentGrid owns every write to a placed
/// cell's position: place() and remove() insert and erase slots, and
/// shift() is the one path that moves a placed cell in x.

#include <span>
#include <utility>
#include <vector>

#include "db/arena_stats.hpp"
#include "db/database.hpp"
#include "db/types.hpp"
#include "db/write_cap.hpp"
#include "util/geometry.hpp"

namespace mrlg {

/// One placed cell on a segment list. Invariant: x, w, y and h equal the
/// cell's x(), width(), y() and height(); a multi-row cell's slots on its
/// h lists all hold the same geometry.
struct SegmentSlot {
    CellId id;
    SiteCoord x = 0;
    SiteCoord w = 0;
    SiteCoord y = 0;  ///< The cell's bottom row.
    SiteCoord h = 0;

    SiteCoord x_hi() const { return x + w; }
    Rect rect() const { return Rect{x, y, w, h}; }

    friend bool operator==(const SegmentSlot&, const SegmentSlot&) = default;
};

struct Segment {
    SegmentId id;
    SiteCoord y = 0;  ///< Row index.
    Span span;        ///< Non-blocked site range [lo, hi).
    int region = 0;   ///< Fence region of these sites (0 = core).
    /// Slots of the placed movable cells overlapping this row, ordered by
    /// x (non-overlapping, so strictly increasing x).
    std::vector<SegmentSlot> cells;

    SiteCoord x() const { return span.lo; }
    SiteCoord width() const { return span.length(); }
};

/// Wildcard for region-filtered queries: match any region.
inline constexpr int kAnyRegion = -1;

/// Geometric bookkeeping for the whole die. Built once from the floorplan
/// (rows minus blockages, which include frozen fixed-cell footprints), then
/// kept in sync by place()/remove()/shift().
class SegmentGrid {
public:
    SegmentGrid() = default;

    /// Cuts every row by the floorplan blockages. Call after
    /// Database::freeze_fixed_cells(). Does not look at movable cells.
    static SegmentGrid build(const Database& db);

    const std::vector<Segment>& segments() const { return segments_; }
    const Segment& segment(SegmentId id) const;
    std::size_t num_segments() const { return segments_.size(); }

    /// Segment ids of row y, sorted by x span.
    std::span<const SegmentId> row_segments(SiteCoord y) const;

    /// Segment on row y whose span fully contains [xs.lo, xs.hi) and whose
    /// region matches (kAnyRegion matches all); invalid id if none.
    SegmentId containing_segment(SiteCoord y, Span xs,
                                 int region = kAnyRegion) const;

    /// True when every row slice of `r` lies inside some segment of the
    /// given region and no placed movable cell (other than `ignore`)
    /// overlaps `r`. Reads slots only.
    bool placeable(const Rect& r, CellId ignore = CellId{},
                   int region = kAnyRegion) const;

    /// True when no placed movable cell (other than `ignore`) overlaps `r`.
    /// Does not check row containment. Reads slots only.
    bool region_free(const Rect& r, CellId ignore = CellId{}) const;

    /// Inserts `c` at (x, y): updates the cell position and inserts its
    /// slot into the h covered segment lists. Requires the footprint to be
    /// contained in segments; does NOT check that it is overlap-free.
    void place(Database& db, CellId c, SiteCoord x, SiteCoord y)
        MRLG_REQUIRES(grid_write_cap());

    /// Removes a placed cell from its segment lists and marks it unplaced.
    void remove(Database& db, CellId c) MRLG_REQUIRES(grid_write_cap());

    /// Moves placed cells in x: each (cell, new x) of `moves`. Locates every
    /// moved cell's slots on the pre-shift lists first (binary search on
    /// the cell's current x), then writes the slots and Cell::x.
    /// Precondition: once every move is applied, each touched list is still
    /// x-sorted, overlap-free and inside its segment — MLL and row polish
    /// keep row order by construction. A violation is checked before any
    /// Cell is written: shift restores the slots and throws AssertionError,
    /// so a failed shift changes nothing.
    void shift(Database& db,
               std::span<const std::pair<CellId, SiteCoord>> moves)
        MRLG_REQUIRES(grid_write_cap());

    /// Index of placed cell `c` in segment `s`'s list (by binary search on
    /// the cell's x over the slots; list order is an invariant). Asserts if
    /// absent.
    std::size_t index_in(const Database& db, const Segment& s, CellId c) const;

    /// Cells of segment `s` whose footprint intersects x range `xs`.
    /// Returns [first, last) index range into s.cells.
    std::pair<std::size_t, std::size_t> cells_overlapping(const Segment& s,
                                                          Span xs) const;

    /// Capacity-based bytes per grid arena (segments, per-segment slot
    /// lists at 20 bytes per slot, row index) for the obs memory-telemetry
    /// block.
    std::vector<ArenaUsage> memory_breakdown() const;

    /// Fault injection for the audit tests ONLY: direct write access to a
    /// segment's cell list so fixtures can break the invariants the
    /// auditors must catch. Never call from library code.
    std::vector<SegmentSlot>& mutable_cells_for_test(SegmentId id)
        MRLG_REQUIRES(grid_write_cap()) {
        return mutable_segment(id).cells;
    }

private:
    Segment& mutable_segment(SegmentId id) MRLG_REQUIRES(grid_write_cap());

    std::vector<Segment> segments_;
    /// segment ids grouped per row; row_index_[y] .. row_index_[y+1].
    std::vector<SegmentId> row_order_;
    std::vector<std::size_t> row_index_;
    /// shift()'s located slots: segment, index in its list, x before and
    /// after the move. Kept as a member so warm shifts do not allocate.
    struct Located {
        SegmentId sid;
        std::size_t index = 0;
        SiteCoord old_x = 0;
        SiteCoord new_x = 0;
    };
    std::vector<Located> shift_located_;
};

}  // namespace mrlg
