#include "legalize/local_problem.hpp"

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

void extract_local_region(const Database& db, const SegmentGrid& grid,
                          const Rect& window, int fence_region,
                          WindowScratch& s, LocalProblem& out) {
    const SiteCoord num_rows = db.floorplan().num_rows();
    const SiteCoord y_lo = std::max<SiteCoord>(window.y, 0);
    const SiteCoord y_hi = std::min<SiteCoord>(window.y_hi(), num_rows);
    const int height = y_hi > y_lo ? static_cast<int>(y_hi - y_lo) : 0;

    // Empty the problem for the new window, keeping every capacity.
    out.window_ = window;
    out.y0_ = y_lo;
    out.site_w_um_ = db.floorplan().site_w_um();
    out.site_h_um_ = db.floorplan().site_h_um();
    out.rows_.assign(static_cast<std::size_t>(height),
                     LocalProblem::RowHeader{});
    out.row_cells_.clear();
    out.cells_.clear();
    out.pos_pool_.clear();
    if (height == 0) {
        return;
    }
    const SiteCoord cx2 = window.center2().x;
    using Entry = WindowScratch::Entry;
    using Pick = WindowScratch::Pick;
    const auto uk = [](int k) { return static_cast<std::size_t>(k); };

    // Snapshot: one cells_overlapping per row-segment of the window, rows
    // bottom-up, copying slots (no Cell is read). A multi-row cell's entry
    // links (`canon`) to its entry on the nearest lower snapshotted row,
    // found by binary search on x — rows are x-sorted because segments are
    // disjoint and sorted.
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
            const auto [first, last] = grid.cells_overlapping(seg, base);
            WindowScratch::Slice slice{
                sid, base, static_cast<int>(s.entries.size()), 0};
            for (std::size_t i = first; i < last; ++i) {
                const int self = static_cast<int>(s.entries.size());
                Entry e{seg.cells[i], self};
                const int lowest =
                    static_cast<int>(std::max<SiteCoord>(e.y, y_lo) - y_lo);
                for (int kk = k - 1; kk >= lowest && e.canon == self; --kk) {
                    const auto row_begin =
                        s.entries.begin() + s.row_entries[uk(kk)];
                    const auto row_end =
                        s.entries.begin() + s.row_entries[uk(kk + 1)];
                    const auto it = std::lower_bound(
                        row_begin, row_end, e.x,
                        [](const Entry& a, SiteCoord x) { return a.x < x; });
                    if (it != row_end && it->id == e.id) {
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
    // closest to the window centre. A slice's entries are x-sorted and
    // overlap-free, so one sweep yields its pieces in x order: the gaps
    // between its blocked spans.
    s.picks.assign(uk(height), Pick{});
    const auto pick_row = [&](int k) {
        Pick best;
        for (int si = s.row_slices[uk(k)]; si < s.row_slices[uk(k + 1)];
             ++si) {
            const WindowScratch::Slice& slice = s.slices[uk(si)];
            SiteCoord lo = slice.base.lo;
            const auto offer = [&](SiteCoord hi) {
                const Span p{lo, hi};
                if (!p.empty() &&
                    (best.slice < 0 || better_piece(p, best.piece, cx2))) {
                    best = Pick{p, si};
                }
            };
            for (int i = slice.begin; i < slice.end; ++i) {
                const Entry& e = s.entries[uk(i)];
                if (s.blocked[uk(e.canon)] != 0) {
                    offer(e.x);
                    lo = std::max<SiteCoord>(lo, e.x + e.w);
                }
            }
            offer(slice.base.hi);
        }
        s.picks[uk(k)] = best;
    };
    for (int k = 0; k < height; ++k) {
        pick_row(k);
    }

    // A cell is local iff every row slice lies inside the chosen piece of
    // that row.
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

    // Fixpoint and emission in one pass: rows bottom-up, each chosen
    // piece's entries in x order. A local cell lies inside its row's
    // piece, so it is among them, and joins the row's CSR slice (its slot
    // holds the canonical entry until the local indices are known) and, on
    // its bottom row, the local list. The first cell met that overlaps a
    // piece without being local becomes a blocker: the rows it touches are
    // re-picked and the pass restarts. Blockers grow monotonically, so
    // this terminates; a pass that meets no new blocker has emitted the
    // rows.
    const auto emit_rows = [&] {
        out.row_cells_.clear();
        s.locals.clear();
        for (int k = 0; k < height; ++k) {
            const Pick& pick = s.picks[uk(k)];
            LocalProblem::RowHeader& row = out.rows_[uk(k)];
            row = LocalProblem::RowHeader{};
            if (pick.slice < 0) {
                continue;
            }
            const WindowScratch::Slice& slice = s.slices[uk(pick.slice)];
            row.present = true;
            row.y = y_lo + static_cast<SiteCoord>(k);
            row.span = pick.piece;
            row.segment = slice.sid;
            row.begin = static_cast<int>(out.row_cells_.size());
            for (int i = slice.begin; i < slice.end; ++i) {
                const Entry& e = s.entries[uk(i)];
                if (cell_is_local(e)) {
                    out.row_cells_.push_back(e.canon);
                    if (e.y == row.y) {  // count each cell once
                        s.locals.push_back(e.canon);
                    }
                } else if (s.blocked[uk(e.canon)] == 0 &&
                           Span{e.x, e.x + e.w}.overlaps(pick.piece)) {
                    s.blocked[uk(e.canon)] = 1;
                    const SiteCoord lo = std::max<SiteCoord>(e.y, y_lo);
                    const SiteCoord hi = std::min<SiteCoord>(e.y + e.h, y_hi);
                    for (SiteCoord y = lo; y < hi; ++y) {
                        pick_row(static_cast<int>(y - y_lo));
                    }
                    return false;
                }
            }
            row.end = static_cast<int>(out.row_cells_.size());
        }
        return true;
    };
    while (!emit_rows()) {
    }

    // Local indices in x order, ties by bottom row: a stable counting sort
    // on x of the emission order (rows bottom-up, x order within a row).
    // Local cells lie inside the window, so the buckets span its x range.
    // Each cell carries the geometry its segment slot recorded, and
    // reserves h slots of the pos_in_row pool.
    const SiteCoord x0 = window.x;
    s.x_start.assign(uk(std::max<SiteCoord>(window.w, 0)) + 1, 0);
    for (const int canon : s.locals) {
        ++s.x_start[uk(s.entries[uk(canon)].x - x0) + 1];
    }
    for (std::size_t b = 1; b < s.x_start.size(); ++b) {
        s.x_start[b] += s.x_start[b - 1];
    }
    out.cells_.resize(s.locals.size());
    s.local_of.resize(s.entries.size());
    for (const int canon : s.locals) {
        const Entry& e = s.entries[uk(canon)];
        const int i = s.x_start[uk(e.x - x0)]++;
        s.local_of[uk(canon)] = i;
        LpCell& lc = out.cells_[uk(i)];
        lc = LpCell{};
        lc.id = e.id;
        lc.x = e.x;
        lc.w = e.w;
        lc.y = e.y;
        lc.h = e.h;
        lc.k0 = static_cast<int>(e.y - y_lo);
        MRLG_ASSERT(lc.k0 >= 0, "local cell outside region rows");
    }
    int pool_size = 0;
    for (LpCell& lc : out.cells_) {
        lc.pos0 = pool_size;
        pool_size += static_cast<int>(lc.h);
    }

    // Row slots: canonical entries become local indices, and each slot's
    // position in its row fills the cell's pos_in_row entry for that row.
    const int n = out.num_cells();
    out.pos_pool_.assign(uk(pool_size), -1);
    for (int k = 0; k < height; ++k) {
        const LocalProblem::RowHeader& row = out.rows_[uk(k)];
        for (int slot = row.begin; slot < row.end; ++slot) {
            const int ci = s.local_of[uk(out.row_cells_[uk(slot)])];
            MRLG_ASSERT(ci >= 0 && ci < n,
                        "row lists a cell missing from local set");
            const LpCell& lc = out.cells_[uk(ci)];
            const int j = k - lc.k0;
            MRLG_ASSERT(j >= 0 && j < lc.h, "cell listed on a row outside "
                                            "its footprint");
            out.pos_pool_[uk(lc.pos0 + j)] = slot - row.begin;
            out.row_cells_[uk(slot)] = ci;
        }
    }
    MRLG_ASSERT(std::find(out.pos_pool_.begin(), out.pos_pool_.end(), -1) ==
                    out.pos_pool_.end(),
                "local cell missing from a row list");
}

LocalProblem extract_local_region(const Database& db, const SegmentGrid& grid,
                                  const Rect& window, int fence_region,
                                  WindowScratch* scratch) {
    // Filled in per-thread buffers that keep their capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local WindowScratch own_scratch;
    thread_local LocalProblem filled;
    extract_local_region(db, grid, window, fence_region,
                         scratch != nullptr ? *scratch : own_scratch, filled);
    return filled;
}

LocalProblem LocalProblem::build(const Database& /*db*/,
                                 const LocalProblem& problem,
                                 LocalProblemScratch* /*scratch*/) {
    return problem;
}

}  // namespace mrlg
