#include "legalize/local_region.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

namespace {

/// Distance from span to a point, in doubled coordinates (0 when inside).
SiteCoord span_distance2(const Span& s, SiteCoord cx2) {
    const SiteCoord lo2 = 2 * s.lo;
    const SiteCoord hi2 = 2 * s.hi;
    if (cx2 < lo2) {
        return lo2 - cx2;
    }
    if (cx2 > hi2) {
        return cx2 - hi2;
    }
    return 0;
}

/// Subtracts `cut` from every span in `pieces` (in place). `tmp` is a
/// caller-provided double-buffer so repeated calls reuse one allocation.
void subtract(std::vector<Span>& pieces, const Span& cut,
              std::vector<Span>& tmp) {
    tmp.clear();
    for (const Span& p : pieces) {
        if (!p.overlaps(cut)) {
            tmp.push_back(p);
            continue;
        }
        if (cut.lo > p.lo) {
            tmp.push_back(Span{p.lo, cut.lo});
        }
        if (cut.hi < p.hi) {
            tmp.push_back(Span{cut.hi, p.hi});
        }
    }
    pieces.swap(tmp);
}

/// True when `a` beats the current best piece `b` for centre x `cx2`
/// (doubled coords): closer, then wider, then smaller lo — so the choice
/// is deterministic.
bool better_piece(const Span& a, const Span& b, SiteCoord cx2) {
    const SiteCoord da = span_distance2(a, cx2);
    const SiteCoord db = span_distance2(b, cx2);
    return da < db ||
           (da == db && (a.length() > b.length() ||
                         (a.length() == b.length() && a.lo < b.lo)));
}

}  // namespace

AttemptFootprint compute_attempt_footprint(const Rect& window,
                                           const Rect& fitted,
                                           SiteCoord max_cell_width) {
    const SiteCoord pad = std::max<SiteCoord>(max_cell_width - 1, 0);
    AttemptFootprint fp;
    fp.rows = Span{std::min(window.y, fitted.y),
                   std::max(window.y_hi(), fitted.y_hi())};
    fp.x = Span{static_cast<SiteCoord>(std::min(window.x, fitted.x) - pad),
                static_cast<SiteCoord>(
                    std::max(window.x_hi(), fitted.x_hi()) + pad)};
    return fp;
}

void extract_local_region(const Database& db, const SegmentGrid& grid,
                          const Rect& window, int fence_region,
                          LocalRegionScratch& s, LocalRegion& out) {
    const SiteCoord num_rows = db.floorplan().num_rows();
    const SiteCoord y_lo = std::max<SiteCoord>(window.y, 0);
    const SiteCoord y_hi = std::min<SiteCoord>(window.y_hi(), num_rows);
    const int height = y_hi > y_lo ? static_cast<int>(y_hi - y_lo) : 0;

    out.reset(window, y_lo, static_cast<std::size_t>(height));
    if (height == 0) {
        return;
    }
    const SiteCoord cx2 = window.center2().x;
    using Entry = LocalRegionScratch::Entry;
    using Pick = LocalRegionScratch::Pick;
    const auto uk = [](int k) { return static_cast<std::size_t>(k); };

    // Snapshot: one cells_overlapping per row-segment of the window, rows
    // bottom-up. A multi-row cell's entry links (`canon`) to its entry on
    // the nearest lower snapshotted row, found by binary search on x —
    // rows are x-sorted because segments are disjoint and sorted.
    s.entries.clear();
    s.slices.clear();
    s.row_entries.clear();
    s.row_slices.clear();
    for (int k = 0; k < height; ++k) {
        const SiteCoord y = y_lo + static_cast<SiteCoord>(k);
        s.row_entries.push_back(static_cast<int>(s.entries.size()));
        s.row_slices.push_back(static_cast<int>(s.slices.size()));
        for (const SegmentId sid : grid.row_segments(y)) {
            const Segment& seg = grid.segment(sid);
            if (seg.region != fence_region) {
                continue;  // other fence regions are hard walls
            }
            const Span base = intersect(seg.span, window.x_span());
            if (base.empty()) {
                continue;
            }
            const auto [first, last] = grid.cells_overlapping(db, seg, base);
            LocalRegionScratch::Slice slice{
                sid, base, static_cast<int>(s.entries.size()), 0};
            for (std::size_t i = first; i < last; ++i) {
                const CellId c = seg.cells[i];
                const Cell& cell = db.cell(c);
                const int self = static_cast<int>(s.entries.size());
                Entry e{c, cell.x(), cell.width(), cell.y(), cell.height(),
                        self};
                const int lowest = static_cast<int>(
                    std::max<SiteCoord>(cell.y(), y_lo) - y_lo);
                for (int kk = k - 1; kk >= lowest && e.canon == self; --kk) {
                    const auto row_begin =
                        s.entries.begin() + s.row_entries[uk(kk)];
                    const auto row_end =
                        s.entries.begin() + s.row_entries[uk(kk + 1)];
                    const auto it = std::lower_bound(
                        row_begin, row_end, e.x,
                        [](const Entry& a, SiteCoord x) { return a.x < x; });
                    if (it != row_end && it->id == c) {
                        e.canon = it->canon;
                    }
                }
                s.entries.push_back(e);
            }
            slice.end = static_cast<int>(s.entries.size());
            s.slices.push_back(slice);
        }
    }
    s.row_entries.push_back(static_cast<int>(s.entries.size()));
    s.row_slices.push_back(static_cast<int>(s.slices.size()));

    // Blockers = cells currently known to be non-local, marked at their
    // canonical entry. Initially: every cell not contained in the window.
    s.blocked.assign(s.entries.size(), 0);
    for (const Entry& e : s.entries) {
        if (!window.contains(Rect{e.x, e.y, e.w, e.h})) {
            s.blocked[uk(e.canon)] = 1;
        }
    }

    // Per row: the piece (a row-segment's window sites cut by blockers)
    // closest to the window centre.
    s.picks.assign(uk(height), Pick{});
    const auto rebuild_row = [&](int k) {
        Pick best;
        for (int si = s.row_slices[uk(k)]; si < s.row_slices[uk(k + 1)];
             ++si) {
            const LocalRegionScratch::Slice& slice = s.slices[uk(si)];
            s.pieces.clear();
            s.pieces.push_back(slice.base);
            for (int i = slice.begin; i < slice.end; ++i) {
                const Entry& e = s.entries[uk(i)];
                if (s.blocked[uk(e.canon)] != 0) {
                    subtract(s.pieces, Span{e.x, e.x + e.w}, s.span_tmp);
                }
            }
            for (const Span& p : s.pieces) {
                if (!p.empty() &&
                    (best.slice < 0 || better_piece(p, best.piece, cx2))) {
                    best = Pick{p, si};
                }
            }
        }
        s.picks[uk(k)] = best;
    };
    for (int k = 0; k < height; ++k) {
        rebuild_row(k);
    }

    // Fixpoint: a cell is local iff every row slice lies inside the chosen
    // piece of that row. Any cell that overlaps a chosen piece without being
    // local becomes a blocker; blockers grow monotonically, so this
    // terminates (each iteration either adds a blocker or stops).
    const auto cell_is_local = [&](const Entry& e) {
        if (s.blocked[uk(e.canon)] != 0) {
            return false;
        }
        const Span xs{e.x, e.x + e.w};
        for (SiteCoord y = e.y; y < e.y + e.h; ++y) {
            const SiteCoord k = y - y_lo;
            if (k < 0 || k >= height) {
                return false;
            }
            const Pick& p = s.picks[static_cast<std::size_t>(k)];
            if (p.slice < 0 || !p.piece.contains(xs)) {
                return false;
            }
        }
        return true;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (int k = 0; k < height && !changed; ++k) {
            const Pick& pick = s.picks[uk(k)];
            if (pick.slice < 0) {
                continue;
            }
            const Span piece = pick.piece;
            const LocalRegionScratch::Slice& slice = s.slices[uk(pick.slice)];
            for (int i = slice.begin; i < slice.end; ++i) {
                const Entry& e = s.entries[uk(i)];
                if (!Span{e.x, e.x + e.w}.overlaps(piece) ||
                    cell_is_local(e) || s.blocked[uk(e.canon)] != 0) {
                    continue;
                }
                s.blocked[uk(e.canon)] = 1;
                // Rebuild every window row the blocker touches.
                const SiteCoord lo = std::max<SiteCoord>(e.y, y_lo);
                const SiteCoord hi = std::min<SiteCoord>(e.y + e.h, y_hi);
                for (SiteCoord y = lo; y < hi; ++y) {
                    rebuild_row(static_cast<int>(y - y_lo));
                }
                changed = true;
                break;
            }
        }
    }

    // Emit the CSR rows. A local cell lies inside its row's chosen piece,
    // so it is among the piece's overlapping cells; its canonical entry is
    // its bottom row's, where it joins the local list. Row slots hold the
    // canonical entry until the local indices are known.
    s.locals.clear();
    for (int k = 0; k < height; ++k) {
        const Pick& pick = s.picks[uk(k)];
        if (pick.slice < 0) {
            continue;
        }
        const LocalRegionScratch::Slice& slice = s.slices[uk(pick.slice)];
        LocalRegion::RowHeader& row = out.rows_[uk(k)];
        row.present = true;
        row.y = y_lo + static_cast<SiteCoord>(k);
        row.span = pick.piece;
        row.global_segment = slice.sid;
        row.begin = static_cast<int>(out.row_cells_.size());
        for (int i = slice.begin; i < slice.end; ++i) {
            const Entry& e = s.entries[uk(i)];
            if (cell_is_local(e)) {
                out.row_cells_.push_back(e.id);
                out.row_local_.push_back(e.canon);
                if (e.y == row.y) {  // count each cell once
                    s.locals.emplace_back(e.id, e.canon);
                }
            }
        }
        row.end = static_cast<int>(out.row_cells_.size());
    }
    std::sort(s.locals.begin(), s.locals.end());
    s.local_of.resize(s.entries.size());
    for (std::size_t i = 0; i < s.locals.size(); ++i) {
        s.local_of[uk(s.locals[i].second)] = static_cast<int>(i);
        out.local_cells_.push_back(s.locals[i].first);
    }
    for (int& slot : out.row_local_) {
        slot = s.local_of[uk(slot)];
    }
}

LocalRegion extract_local_region(const Database& db, const SegmentGrid& grid,
                                 const Rect& window, int fence_region,
                                 LocalRegionScratch* scratch) {
    // Filled in per-thread buffers that keep their capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local LocalRegionScratch own_scratch;
    thread_local LocalRegion filled;
    extract_local_region(db, grid, window, fence_region,
                         scratch != nullptr ? *scratch : own_scratch, filled);
    return filled;
}

}  // namespace mrlg
