#include "db/segment.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

SegmentGrid SegmentGrid::build(const Database& db) {
    SegmentGrid grid;
    const Floorplan& fp = db.floorplan();
    grid.row_index_.assign(static_cast<std::size_t>(fp.num_rows()) + 1, 0);

    for (const Row& row : fp.rows()) {
        // Collect blockage cuts on this row, merged left-to-right.
        std::vector<Span> cuts;
        const Rect row_rect{row.x, row.y, row.num_sites, 1};
        for (const Rect& b : fp.blockages()) {
            const Rect ov = intersect(row_rect, b);
            if (!ov.empty()) {
                cuts.push_back(ov.x_span());
            }
        }
        std::sort(cuts.begin(), cuts.end(),
                  [](const Span& a, const Span& b2) { return a.lo < b2.lo; });

        // Fence intervals on this row (merged per region boundary cut).
        struct FenceCut {
            Span span;
            int region;
        };
        std::vector<FenceCut> fence_cuts;
        const Rect row_rect2{row.x, row.y, row.num_sites, 1};
        for (const Floorplan::Fence& f : fp.fences()) {
            const Rect ov = intersect(row_rect2, f.rect);
            if (!ov.empty()) {
                fence_cuts.push_back(FenceCut{ov.x_span(), f.region});
            }
        }
        std::sort(fence_cuts.begin(), fence_cuts.end(),
                  [](const FenceCut& a, const FenceCut& b) {
                      return a.span.lo < b.span.lo;
                  });
        // Merge touching/overlapping same-region pieces so a fence built
        // from several rects still yields one contiguous segment.
        {
            std::vector<FenceCut> merged;
            for (const FenceCut& fc : fence_cuts) {
                if (!merged.empty() &&
                    merged.back().region == fc.region &&
                    fc.span.lo <= merged.back().span.hi) {
                    merged.back().span.hi =
                        std::max(merged.back().span.hi, fc.span.hi);
                } else {
                    merged.push_back(fc);
                }
            }
            fence_cuts = std::move(merged);
        }

        SiteCoord cursor = row.x;
        auto emit_tagged = [&](SiteCoord lo, SiteCoord hi, int region) {
            if (hi > lo) {
                const SegmentId id{
                    static_cast<SegmentId::underlying>(grid.segments_.size())};
                grid.segments_.push_back(
                    Segment{id, row.y, Span{lo, hi}, region, {}});
                grid.row_order_.push_back(id);
                ++grid.row_index_[static_cast<std::size_t>(row.y) + 1];
            }
        };
        // Splits a blockage-free span at fence boundaries and emits each
        // piece with its region tag.
        auto emit = [&](SiteCoord lo, SiteCoord hi) {
            SiteCoord pos = lo;
            for (const FenceCut& fc : fence_cuts) {
                if (fc.span.hi <= pos || fc.span.lo >= hi) {
                    continue;
                }
                const SiteCoord f_lo = std::max(fc.span.lo, pos);
                const SiteCoord f_hi = std::min(fc.span.hi, hi);
                emit_tagged(pos, f_lo, 0);
                // Same-region fences may abut/overlap; extend through them
                // is unnecessary — emit piecewise (queries only need tags).
                emit_tagged(f_lo, f_hi, fc.region);
                pos = std::max(pos, f_hi);
            }
            emit_tagged(pos, hi, 0);
        };
        for (const Span& c : cuts) {
            if (c.lo > cursor) {
                emit(cursor, c.lo);
            }
            cursor = std::max(cursor, c.hi);
        }
        emit(cursor, static_cast<SiteCoord>(row.x + row.num_sites));
    }

    // Prefix-sum row_index_ so row_segments(y) is a contiguous span.
    for (std::size_t y = 1; y < grid.row_index_.size(); ++y) {
        grid.row_index_[y] += grid.row_index_[y - 1];
    }
    return grid;
}

const Segment& SegmentGrid::segment(SegmentId id) const {
    MRLG_ASSERT(id.valid() && id.index() < segments_.size(), "bad SegmentId");
    return segments_[id.index()];
}

Segment& SegmentGrid::mutable_segment(SegmentId id) {
    MRLG_ASSERT(id.valid() && id.index() < segments_.size(), "bad SegmentId");
    return segments_[id.index()];
}

std::span<const SegmentId> SegmentGrid::row_segments(SiteCoord y) const {
    if (y < 0 || static_cast<std::size_t>(y) + 1 >= row_index_.size()) {
        return {};
    }
    const std::size_t lo = row_index_[static_cast<std::size_t>(y)];
    const std::size_t hi = row_index_[static_cast<std::size_t>(y) + 1];
    return std::span<const SegmentId>(row_order_.data() + lo, hi - lo);
}

SegmentId SegmentGrid::containing_segment(SiteCoord y, Span xs,
                                          int region) const {
    for (const SegmentId id : row_segments(y)) {
        const Segment& s = segments_[id.index()];
        if (s.span.contains(xs)) {
            if (region == kAnyRegion || s.region == region) {
                return id;
            }
            return SegmentId{};  // right sites, wrong fence region
        }
        if (s.span.lo > xs.lo) {
            break;  // segments sorted by x; no later segment can contain xs
        }
    }
    return SegmentId{};
}

std::pair<std::size_t, std::size_t> SegmentGrid::cells_overlapping(
    const Database& db, const Segment& s, Span xs) const {
    // First cell whose right edge exceeds xs.lo: candidates start at the
    // predecessor of the first cell with x >= xs.lo (it may stick into xs).
    const auto& list = s.cells;
    auto it = std::lower_bound(
        list.begin(), list.end(), xs.lo,
        [&](CellId c, SiteCoord x) { return db.cell(c).x() < x; });
    std::size_t first = static_cast<std::size_t>(it - list.begin());
    if (first > 0) {
        const Cell& prev = db.cell(list[first - 1]);
        if (prev.x() + prev.width() > xs.lo) {
            --first;
        }
    }
    std::size_t last = first;
    while (last < list.size() && db.cell(list[last]).x() < xs.hi) {
        ++last;
    }
    return {first, last};
}

bool SegmentGrid::region_free(const Database& db, const Rect& r,
                              CellId ignore) const {
    for (SiteCoord y = r.y; y < r.y_hi(); ++y) {
        for (const SegmentId id : row_segments(y)) {
            const Segment& s = segments_[id.index()];
            if (!s.span.overlaps(r.x_span())) {
                continue;
            }
            const auto [first, last] = cells_overlapping(db, s, r.x_span());
            for (std::size_t i = first; i < last; ++i) {
                if (s.cells[i] != ignore) {
                    return false;
                }
            }
        }
    }
    return true;
}

bool SegmentGrid::placeable(const Database& db, const Rect& r,
                            CellId ignore, int region) const {
    for (SiteCoord y = r.y; y < r.y_hi(); ++y) {
        if (!containing_segment(y, r.x_span(), region).valid()) {
            return false;
        }
    }
    return region_free(db, r, ignore);
}

void SegmentGrid::place(Database& db, CellId c, SiteCoord x, SiteCoord y) {
    Cell& cell = db.cell(c);
    MRLG_ASSERT(!cell.fixed(), "cannot place a fixed cell");
    MRLG_ASSERT(!cell.placed(), "cell already placed: " + cell.name());
    const Span xs{x, x + cell.width()};
    // Validate the whole footprint before mutating anything, so a failed
    // place leaves the cell untouched.
    std::vector<SegmentId> target_segments;
    target_segments.reserve(static_cast<std::size_t>(cell.height()));
    for (SiteCoord row = y; row < y + cell.height(); ++row) {
        const SegmentId sid = containing_segment(row, xs, cell.region());
        MRLG_ASSERT(sid.valid(),
                    "cell footprint not contained in a segment of its "
                    "fence region: " +
                        cell.name());
        target_segments.push_back(sid);
    }
    cell.set_pos(x, y);
    for (const SegmentId sid : target_segments) {
        auto& list = mutable_segment(sid).cells;
        const auto it = std::lower_bound(
            list.begin(), list.end(), x,
            [&](CellId other, SiteCoord xv) { return db.cell(other).x() < xv; });
        list.insert(it, c);
    }
    // Odd-height cells flip to match the row's rail phase; even-height
    // cells keep N (their placement row is what must match).
    if (cell.height() % 2 == 1) {
        const bool phase_match =
            (y % 2 == 0) == (cell.rail_phase() == RailPhase::kEven);
        cell.set_orient(phase_match ? Orient::kN : Orient::kFS);
    } else {
        cell.set_orient(Orient::kN);
    }
}

void SegmentGrid::remove(Database& db, CellId c) {
    Cell& cell = db.cell(c);
    MRLG_ASSERT(cell.placed(), "cell not placed: " + cell.name());
    const Span xs{cell.x(), static_cast<SiteCoord>(cell.x() + cell.width())};
    for (SiteCoord row = cell.y(); row < cell.y() + cell.height(); ++row) {
        const SegmentId sid =
            containing_segment(row, xs, cell.region());
        MRLG_ASSERT(sid.valid(), "placed cell lost its segment");
        auto& list = mutable_segment(sid).cells;
        const std::size_t idx = index_in(db, segments_[sid.index()], c);
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    cell.unplace();
}

std::size_t SegmentGrid::index_in(const Database& db, const Segment& s,
                                  CellId c) const {
    const Cell& cell = db.cell(c);
    const auto& list = s.cells;
    auto it = std::lower_bound(
        list.begin(), list.end(), cell.x(),
        [&](CellId other, SiteCoord xv) { return db.cell(other).x() < xv; });
    // Several transiently-equal x values are impossible for *placed* cells
    // (lists are overlap-free), but be robust: scan forward for the id.
    while (it != list.end() && *it != c &&
           db.cell(*it).x() == cell.x()) {
        ++it;
    }
    MRLG_ASSERT(it != list.end() && *it == c,
                "cell not found in segment list: " + cell.name());
    return static_cast<std::size_t>(it - list.begin());
}

std::vector<ArenaUsage> SegmentGrid::memory_breakdown() const {
    std::vector<ArenaUsage> arenas;
    std::size_t list_bytes = 0;
    std::size_t cell_refs = 0;
    for (const Segment& s : segments_) {
        list_bytes += s.cells.capacity() * sizeof(CellId);
        cell_refs += s.cells.size();
    }
    arenas.push_back({"segments", segments_.capacity() * sizeof(Segment),
                      segments_.size()});
    arenas.push_back({"segment_cell_lists", list_bytes, cell_refs});
    arenas.push_back({"row_index",
                      row_order_.capacity() * sizeof(SegmentId) +
                          row_index_.capacity() * sizeof(std::size_t),
                      row_order_.size()});
    return arenas;
}

}  // namespace mrlg
