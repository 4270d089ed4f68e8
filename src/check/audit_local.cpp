#include "check/audit_local.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace mrlg {

namespace {

std::string lr_who(const Database& db, CellId id) {
    std::ostringstream os;
    os << "cell '" << db.cell(id).name() << "' (#" << id << ")";
    return os.str();
}

}  // namespace

AuditReport audit_local_region(const Database& db, const SegmentGrid& grid,
                               const LocalProblem& lp, int fence_region) {
    AuditReport r;
    r.scope = "local-region";
    const int n = lp.num_cells();
    const Rect& window = lp.window();

    // CSR layout first: every other check reads rows through it. Present
    // rows' slices tile the row pool in row order; absent rows are empty.
    int next = 0;
    bool csr_ok = true;
    for (const LocalProblem::RowHeader& h : lp.row_headers()) {
        csr_ok = csr_ok && h.begin <= h.end &&
                 (h.present ? h.begin == next : h.begin == h.end);
        if (h.present) {
            next = h.end;
        }
    }
    if (!csr_ok ||
        static_cast<std::size_t>(next) != lp.row_cell_pool().size()) {
        r.add("lr-csr",
              "row headers do not tile the flat cell array in row order");
        return r;
    }

    // The cells on their own and against the Database.
    std::vector<CellId> by_id;
    by_id.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(i);
        const Rect carried{c.x, c.y, c.w, c.h};
        by_id.push_back(c.id);
        if (c.w <= 0 || c.h <= 0) {
            std::ostringstream os;
            os << "lp cell " << i << " has non-positive size " << c.w << "x"
               << c.h;
            r.add("lr-cell-geometry", os.str());
        }
        if (c.y != lp.y0() + static_cast<SiteCoord>(c.k0)) {
            std::ostringstream os;
            os << "lp cell " << i << " k0 " << c.k0
               << " disagrees with its row " << c.y;
            r.add("lr-cell-row", os.str());
        }
        for (SiteCoord j = 0; j < c.h; ++j) {
            if (!lp.has_row(c.k0 + static_cast<int>(j))) {
                std::ostringstream os;
                os << "lp cell " << i << " crosses row "
                   << c.k0 + static_cast<int>(j)
                   << " which has no local segment";
                r.add("lr-cell-rows", os.str());
            }
        }
        if (!window.contains(carried)) {
            r.add("lr-cell-window",
                  lr_who(db, c.id) + " not fully inside the window");
        }
        const Cell& cell = db.cell(c.id);
        if (!cell.placed()) {
            r.add("lr-cell-placed",
                  "unplaced " + lr_who(db, c.id) + " listed as local");
        } else if (carried != cell.rect()) {
            std::ostringstream os;
            os << lr_who(db, c.id) << " carries footprint " << carried
               << ", the cell is at " << cell.rect();
            r.add("lr-geom", os.str());
        }
    }
    std::sort(by_id.begin(), by_id.end());
    const auto is_local = [&](CellId c) {
        return std::binary_search(by_id.begin(), by_id.end(), c);
    };

    // pos_in_row pool: cell i owns the h slots starting at the sum of the
    // heights before it, and each slot holds the cell's position in that
    // row's list.
    bool pool_ok = true;
    int next_slot = 0;
    for (int i = 0; i < n && pool_ok; ++i) {
        const LpCell& c = lp.cell(i);
        pool_ok = c.pos0 == next_slot && c.h >= 0;
        next_slot += static_cast<int>(c.h);
    }
    pool_ok = pool_ok &&
              static_cast<std::size_t>(next_slot) == lp.pos_pool().size();
    if (!pool_ok) {
        r.add("lr-pos-pool", "cells' pos_in_row slots do not tile the pool "
                             "in cell order");
    }
    for (int i = 0; i < n && pool_ok; ++i) {
        const LpCell& c = lp.cell(i);
        for (int j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(i, j);
            if (!lp.has_row(k) || pos < 0 ||
                static_cast<std::size_t>(pos) >= lp.row(k).cells.size() ||
                lp.row(k).cells[static_cast<std::size_t>(pos)] != i) {
                std::ostringstream os;
                os << "lp cell " << i << " pos_in_row slot " << j
                   << " is unfilled or names another cell";
                r.add("lr-pos-pool", os.str());
            }
        }
    }

    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const LpRow row = lp.row(k);
        if (row.y != lp.y0() + static_cast<SiteCoord>(k)) {
            std::ostringstream os;
            os << "local row " << k << " claims absolute row " << row.y
               << ", expected " << lp.y0() + static_cast<SiteCoord>(k);
            r.add("lr-row-index", os.str());
        }
        if (row.span.empty() || !window.x_span().contains(row.span)) {
            std::ostringstream os;
            os << "local row " << k << " span " << row.span
               << " is empty or leaves the window " << window.x_span();
            r.add("lr-span", os.str());
        }
        SiteCoord prev_end = row.span.lo;
        for (std::size_t pos = 0; pos < row.cells.size(); ++pos) {
            const int i = row.cells[pos];
            if (i < 0 || i >= n) {
                std::ostringstream os;
                os << "local row " << k << " references invalid cell index "
                   << i;
                r.add("lr-cell-ref", os.str());
                continue;
            }
            const LpCell& c = lp.cell(i);
            if (c.x < row.span.lo || c.x + c.w > row.span.hi) {
                std::ostringstream os;
                os << "lp cell " << i << " outside local row " << k
                   << " span " << row.span;
                r.add("lr-cell-span", os.str());
            }
            if (c.x < prev_end) {
                std::ostringstream os;
                os << "overlap or order violation before lp cell " << i
                   << " on local row " << k;
                r.add("lr-cell-order", os.str());
            }
            prev_end = c.x + c.w;
            const int j = k - c.k0;
            if (j < 0 || j >= c.h ||
                (pool_ok && lp.pos_in_row(i, j) != static_cast<int>(pos))) {
                std::ostringstream os;
                os << "lp cell " << i
                   << " pos_in_row inconsistent on local row " << k;
                r.add("lr-cell-pos", os.str());
            }
        }

        const SegmentId sid =
            lp.row_headers()[static_cast<std::size_t>(k)].segment;
        if (!sid.valid()) {
            std::ostringstream os;
            os << "local row " << k << " has no enclosing segment";
            r.add("lr-segment", os.str());
            continue;
        }
        const Segment& seg = grid.segment(sid);
        if (seg.y != row.y || !seg.span.contains(row.span) ||
            seg.region != fence_region) {
            std::ostringstream os;
            os << "local row " << k << " span " << row.span
               << " not enclosed by segment #" << seg.id << " (row " << seg.y
               << " span " << seg.span << " region " << seg.region << ")";
            r.add("lr-segment", os.str());
        }
        // Frozen non-local cells act as obstacles: none may intersect the
        // chosen span (their sites would have been subtracted in §2.1.3).
        const auto [first, last] = grid.cells_overlapping(seg, row.span);
        for (std::size_t i = first; i < last; ++i) {
            const SegmentSlot& slot = seg.cells[i];
            if (Span{slot.x, slot.x_hi()}.overlaps(row.span) &&
                !is_local(slot.id)) {
                std::ostringstream os;
                os << "non-local " << lr_who(db, slot.id)
                   << " intersects local row " << k << " span " << row.span;
                r.add("lr-nonlocal-free", os.str());
            }
        }
    }

    // The sweeps walk indices as x order: cells strictly increase in
    // (x, bottom row), and no cell is listed twice.
    for (int i = 1; i < n; ++i) {
        const LpCell& a = lp.cell(i - 1);
        const LpCell& b = lp.cell(i);
        if (std::pair(a.x, a.y) >= std::pair(b.x, b.y)) {
            std::ostringstream os;
            os << "lp cell " << i << " at (" << b.x << ", " << b.y
               << ") does not follow lp cell " << i - 1 << " at (" << a.x
               << ", " << a.y << ") in (x, bottom row) order";
            r.add("lr-locals-sorted", os.str());
            break;
        }
    }
    return r;
}

AuditReport audit_local_problem(const LocalProblem& lp) {
    AuditReport r;
    r.scope = "local-problem";
    for (int i = 0; i < lp.num_cells(); ++i) {
        const LpCell& c = lp.cell(i);
        // §5.1.1: the current (legal) position lies between the leftmost
        // and rightmost packings.
        if (!(c.xl <= c.x && c.x <= c.xr)) {
            std::ostringstream os;
            os << "lp cell " << i << " x " << c.x
               << " outside min/max bounds [" << c.xl << ", " << c.xr << "]";
            r.add("lp-minmax", os.str());
        }
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + static_cast<int>(j);
            if (!lp.has_row(k)) {
                continue;
            }
            const Span span = lp.row(k).span;
            if (c.xl < span.lo || c.xr + c.w > span.hi) {
                std::ostringstream os;
                os << "lp cell " << i << " packing bounds [" << c.xl << ", "
                   << c.xr << "] leave lp row " << k << " span " << span;
                r.add("lp-minmax-span", os.str());
            }
        }
    }

    // Both packings must preserve each row's cell order without overlap —
    // they are legal placements by construction (Fig. 6).
    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const std::span<const int> cells = lp.row(k).cells;
        for (std::size_t pos = 1; pos < cells.size(); ++pos) {
            const LpCell& a = lp.cell(cells[pos - 1]);
            const LpCell& b = lp.cell(cells[pos]);
            if (a.xl + a.w > b.xl || a.xr + a.w > b.xr) {
                std::ostringstream os;
                os << "packing overlap between lp cells " << cells[pos - 1]
                   << " and " << cells[pos] << " on lp row " << k;
                r.add("lp-minmax-order", os.str());
            }
        }
    }
    return r;
}

AuditReport audit_point_scan(const LocalProblem& lp,
                             std::span<const InsertionPoint> points,
                             const TargetSpec& target,
                             PointEvaluator evaluate,
                             const PointScan& chosen) {
    AuditReport r;
    r.scope = "point-scan";
    EvalScratch scratch;
    PointScan full;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Evaluation ev = evaluate(lp, points[i], target, scratch);
        if (!ev.feasible) {
            continue;
        }
        const double bound = cost_lower_bound_um(lp, points[i], target);
        if (bound > ev.cost_um) {
            std::ostringstream os;
            os.precision(17);
            os << "point " << i << " bound " << bound << " exceeds its cost "
               << ev.cost_um;
            r.add("scan-bound", os.str());
        }
        if (!full.found() || ev.cost_um < full.eval.cost_um) {
            full.eval = ev;
            full.index = i;
        }
    }
    const auto describe = [](const PointScan& s) {
        std::ostringstream os;
        os.precision(17);
        if (!s.found()) {
            os << "none";
        } else {
            os << "point " << s.index << " (xt " << s.eval.xt << ", cost "
               << s.eval.cost_um << ")";
        }
        return os.str();
    };
    const bool same =
        full.index == chosen.index &&
        (!full.found() || (full.eval.xt == chosen.eval.xt &&
                           full.eval.cost_um == chosen.eval.cost_um));
    if (!same) {
        r.add("scan-winner", "pruned scan chose " + describe(chosen) +
                                 ", exhaustive scan " + describe(full));
    }
    return r;
}

}  // namespace mrlg
