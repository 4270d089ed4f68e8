#include "legalize/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "eval/legality.hpp"
#include "util/timer.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// Nearest feasible x to px for a (w × h) footprint with bottom row y, or
/// nullopt. Merges the blocked intervals of all covered rows and scans the
/// free gaps.
std::optional<SiteCoord> nearest_free_x(const Database& db,
                                        const SegmentGrid& grid, SiteCoord y,
                                        double px, SiteCoord w, SiteCoord h,
                                        int region) {
    // Usable x range: intersection of covered rows' extents.
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + h; ++r) {
        const Row& row = db.floorplan().row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi, static_cast<SiteCoord>(row.x + row.num_sites));
    }
    if (x_hi - x_lo < w) {
        return std::nullopt;
    }

    // Blocked spans: segment gaps (blockages) + placed cells.
    std::vector<Span> blocked;
    for (SiteCoord r = y; r < y + h; ++r) {
        SiteCoord cursor = x_lo;
        for (const SegmentId sid : grid.row_segments(r)) {
            const Segment& seg = grid.segment(sid);
            const Span s = intersect(seg.span, Span{x_lo, x_hi});
            if (s.empty()) {
                continue;
            }
            if (seg.region != region) {
                blocked.push_back(s);  // other regions are hard walls
                continue;
            }
            if (s.lo > cursor) {
                blocked.push_back(Span{cursor, s.lo});
            }
            cursor = std::max(cursor, s.hi);
            const auto [first, last] =
                grid.cells_overlapping(db, seg, Span{x_lo, x_hi});
            for (std::size_t i = first; i < last; ++i) {
                const Cell& c = db.cell(seg.cells[i]);
                blocked.push_back(Span{c.x(), c.x() + c.width()});
            }
        }
        if (cursor < x_hi) {
            blocked.push_back(Span{cursor, x_hi});
        }
    }
    std::sort(blocked.begin(), blocked.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });

    // Scan free gaps between merged blocked spans.
    std::optional<SiteCoord> best;
    double best_d = std::numeric_limits<double>::max();
    auto consider_gap = [&](SiteCoord lo, SiteCoord hi) {
        if (hi - lo < w) {
            return;
        }
        const double xc = std::clamp(px, static_cast<double>(lo),
                                     static_cast<double>(hi - w));
        const SiteCoord x = std::clamp<SiteCoord>(
            static_cast<SiteCoord>(std::lround(xc)), lo,
            static_cast<SiteCoord>(hi - w));
        const double d = std::abs(static_cast<double>(x) - px);
        if (d < best_d) {
            best_d = d;
            best = x;
        }
    };
    SiteCoord cursor = x_lo;
    for (const Span& b : blocked) {
        if (b.lo > cursor) {
            consider_gap(cursor, b.lo);
        }
        cursor = std::max(cursor, b.hi);
    }
    if (cursor < x_hi) {
        consider_gap(cursor, x_hi);
    }
    return best;
}

}  // namespace

std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell_id, double px,
                                                double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const double sw = fp.site_w_um();
    const double sh = fp.site_h_um();
    const SiteCoord h = cell.height();
    const SiteCoord max_y = std::max<SiteCoord>(0, fp.num_rows() - h);

    std::vector<SiteCoord> rows;
    rows.reserve(static_cast<std::size_t>(max_y) + 1);
    for (SiteCoord y = 0; y <= max_y; ++y) {
        if (!check_rail || rail_compatible(y, h, cell.rail_phase())) {
            rows.push_back(y);
        }
    }
    std::sort(rows.begin(), rows.end(), [&](SiteCoord a, SiteCoord b) {
        return std::abs(static_cast<double>(a) - py) <
               std::abs(static_cast<double>(b) - py);
    });

    double best_cost = std::numeric_limits<double>::max();
    std::optional<Point> best;
    for (const SiteCoord y : rows) {
        const double y_cost = std::abs(static_cast<double>(y) - py) * sh;
        if (y_cost >= best_cost) {
            break;  // rows sorted by |dy|; nothing further can win
        }
        const auto x = nearest_free_x(db, grid, y, px, cell.width(), h,
                                      cell.region());
        if (!x) {
            continue;
        }
        const double cost =
            y_cost + std::abs(static_cast<double>(*x) - px) * sw;
        if (cost < best_cost) {
            best_cost = cost;
            best = Point{*x, y};
        }
    }
    return best;
}

GreedyStats greedy_legalize(Database& db, SegmentGrid& grid,
                            const GreedyOptions& opts) {
    GridWriteScope grid_write;
    Timer timer;
    GreedyStats stats;
    std::vector<CellId> order = db.movable_cells();
    stats.num_cells = order.size();
    switch (opts.order) {
        case GreedyOptions::Order::kLeftToRight:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 return db.cell(a).gp_x() < db.cell(b).gp_x();
                             });
            break;
        case GreedyOptions::Order::kAreaDescending:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 const auto& ca = db.cell(a);
                                 const auto& cb = db.cell(b);
                                 return ca.width() * ca.height() >
                                        cb.width() * cb.height();
                             });
            break;
    }

    for (const CellId c : order) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }

    for (const CellId c : order) {
        const Cell& cell = db.cell(c);
        const auto best = find_nearest_free_position(
            db, grid, c, cell.gp_x(), cell.gp_y(), opts.check_rail);
        if (best) {
            grid.place(db, c, best->x, best->y);
        } else {
            ++stats.unplaced;
        }
    }
    stats.success = stats.unplaced == 0;
    stats.runtime_s = timer.elapsed_s();
    return stats;
}

}  // namespace mrlg
