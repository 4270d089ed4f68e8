#pragma once
/// \file segment.hpp
/// Segment model of paper §2.1.2: a segment is a maximal run of non-blocked
/// placement sites on one row. Every placed movable cell of height h is
/// referenced by the cell list of each of the h segments it crosses; lists
/// are kept sorted by cell x.

#include <span>
#include <vector>

#include "db/arena_stats.hpp"
#include "db/database.hpp"
#include "db/types.hpp"
#include "db/write_cap.hpp"
#include "util/geometry.hpp"

namespace mrlg {

struct Segment {
    SegmentId id;
    SiteCoord y = 0;  ///< Row index.
    Span span;        ///< Non-blocked site range [lo, hi).
    int region = 0;   ///< Fence region of these sites (0 = core).
    /// Placed movable cells overlapping this row, ordered by x
    /// (non-overlapping, so strictly increasing x).
    std::vector<CellId> cells;

    SiteCoord x() const { return span.lo; }
    SiteCoord width() const { return span.length(); }
};

/// Wildcard for region-filtered queries: match any region.
inline constexpr int kAnyRegion = -1;

/// Geometric bookkeeping for the whole die. Built once from the floorplan
/// (rows minus blockages, which include frozen fixed-cell footprints), then
/// kept in sync by place()/remove().
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
    /// overlaps `r`.
    bool placeable(const Database& db, const Rect& r,
                   CellId ignore = CellId{},
                   int region = kAnyRegion) const;

    /// True when no placed movable cell (other than `ignore`) overlaps `r`.
    /// Does not check row containment.
    bool region_free(const Database& db, const Rect& r,
                     CellId ignore = CellId{}) const;

    /// Inserts `c` at (x, y): updates the cell position and registers it in
    /// the h covered segment lists. Requires the footprint to be contained
    /// in segments; does NOT require it to be overlap-free (MLL commits the
    /// target before pushing neighbours).
    void place(Database& db, CellId c, SiteCoord x, SiteCoord y)
        MRLG_REQUIRES(grid_write_cap());

    /// Removes a placed cell from its segment lists and marks it unplaced.
    void remove(Database& db, CellId c) MRLG_REQUIRES(grid_write_cap());

    /// Index of placed cell `c` in segment `s`'s list (by binary search on
    /// x; list order is an invariant). Asserts if absent.
    std::size_t index_in(const Database& db, const Segment& s, CellId c) const;

    /// Cells of segment `s` whose footprint intersects x range `xs`.
    /// Returns [first, last) index range into s.cells.
    std::pair<std::size_t, std::size_t> cells_overlapping(
        const Database& db, const Segment& s, Span xs) const;

    /// Capacity-based bytes per grid arena (segments + per-segment cell
    /// lists, row index) for the obs memory-telemetry block.
    std::vector<ArenaUsage> memory_breakdown() const;

    /// Fault injection for the audit tests ONLY: direct write access to a
    /// segment's cell list so fixtures can break the invariants the
    /// auditors must catch. Never call from library code.
    std::vector<CellId>& mutable_cells_for_test(SegmentId id)
        MRLG_REQUIRES(grid_write_cap()) {
        return mutable_segment(id).cells;
    }

private:
    Segment& mutable_segment(SegmentId id) MRLG_REQUIRES(grid_write_cap());

    std::vector<Segment> segments_;
    /// segment ids grouped per row; row_index_[y] .. row_index_[y+1].
    std::vector<SegmentId> row_order_;
    std::vector<std::size_t> row_index_;
};

}  // namespace mrlg
