#include "legalize/abacus.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "util/timer.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// How many rows above/below the gp row to examine per cell.
constexpr SiteCoord kRowSearchRadius = 16;

/// One Abacus cluster: cells glued together, optimal position q/e.
struct Cluster {
    double e = 0.0;   ///< Total weight (Σ e_i).
    double q = 0.0;   ///< Σ e_i (x'_i - offset_i).
    SiteCoord w = 0;  ///< Total width.
    SiteCoord x = 0;  ///< Current (clamped) position.
    std::size_t first_cell = 0;  ///< Index into the row's cell sequence.
};

/// Per-segment Abacus state: the cells appended so far and their clusters.
struct SegmentState {
    Span span;
    SiteCoord y = 0;
    std::vector<CellId> cells;    ///< In insertion (x) order.
    std::vector<double> pref_x;   ///< Preferred x per cell.
    std::vector<SiteCoord> width;
    std::vector<Cluster> clusters;

    /// Appends a cell and collapses; returns the cell's final x, or
    /// nullopt when the segment is full.
    std::optional<SiteCoord> append(double px, SiteCoord w) {
        SiteCoord used = 0;
        for (const SiteCoord cw : width) {
            used += cw;
        }
        if (used + w > span.length()) {
            return std::nullopt;
        }
        cells.push_back(CellId{});  // id patched by caller
        pref_x.push_back(px);
        width.push_back(w);

        Cluster nc;
        nc.e = 1.0;
        nc.q = px;  // offset within its own cluster is 0
        nc.w = w;
        nc.first_cell = width.size() - 1;
        clusters.push_back(nc);
        collapse();
        // Final x of the appended cell = its cluster position + offset.
        const Cluster& last = clusters.back();
        SiteCoord off = 0;
        for (std::size_t i = last.first_cell; i + 1 < width.size(); ++i) {
            off += width[i];
        }
        return static_cast<SiteCoord>(last.x + off);
    }

    void collapse() {
        while (true) {
            Cluster& c = clusters.back();
            // Optimal unclamped position, then clamp into the segment.
            double x = c.q / c.e;
            x = std::clamp(x, static_cast<double>(span.lo),
                           static_cast<double>(span.hi - c.w));
            c.x = static_cast<SiteCoord>(std::lround(x));
            c.x = std::clamp<SiteCoord>(c.x, span.lo,
                                        static_cast<SiteCoord>(span.hi - c.w));
            if (clusters.size() < 2) {
                return;
            }
            Cluster& prev = clusters[clusters.size() - 2];
            if (prev.x + prev.w <= c.x) {
                return;
            }
            // Merge c into prev: offsets of c's cells shift by prev.w.
            prev.q += c.q - c.e * static_cast<double>(prev.w);
            prev.e += c.e;
            prev.w += c.w;
            clusters.pop_back();
        }
    }

    /// Positions of all cells from the cluster decomposition.
    void final_positions(std::vector<SiteCoord>& out) const {
        out.assign(width.size(), 0);
        for (std::size_t ci = 0; ci < clusters.size(); ++ci) {
            const Cluster& c = clusters[ci];
            const std::size_t end = ci + 1 < clusters.size()
                                        ? clusters[ci + 1].first_cell
                                        : width.size();
            SiteCoord x = c.x;
            for (std::size_t i = c.first_cell; i < end; ++i) {
                out[i] = x;
                x += width[i];
            }
        }
    }
};

}  // namespace

AbacusStats abacus_legalize(Database& db, SegmentGrid& grid) {
    GridWriteScope grid_write;
    Timer timer;
    AbacusStats stats;
    std::vector<CellId> order = db.movable_cells();
    stats.num_cells = order.size();

    for (const CellId c : order) {
        if (db.cell(c).height() > 1) {
            stats.rejected_multi_row = true;
            stats.unplaced = order.size();
            stats.runtime_s = timer.elapsed_s();
            return stats;  // multi-row cells unsupported by construction
        }
    }

    for (const CellId c : order) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
    // Abacus processes cells in x order.
    std::stable_sort(order.begin(), order.end(), [&](CellId a, CellId b) {
        return db.cell(a).gp_x() < db.cell(b).gp_x();
    });

    // One Abacus state per segment.
    std::vector<SegmentState> state(grid.num_segments());
    for (std::size_t i = 0; i < grid.num_segments(); ++i) {
        const Segment& s = grid.segments()[i];
        state[i].span = s.span;
        state[i].y = s.y;
    }

    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    std::vector<std::vector<CellId>> seg_assign(grid.num_segments());

    for (const CellId c : order) {
        const Cell& cell = db.cell(c);
        double best_cost = std::numeric_limits<double>::max();
        int best_seg = -1;
        SiteCoord best_x = 0;

        const SiteCoord y0 = static_cast<SiteCoord>(
            std::lround(std::clamp(cell.gp_y(), 0.0,
                                   static_cast<double>(
                                       db.floorplan().num_rows() - 1))));
        for (SiteCoord dy = 0; dy <= kRowSearchRadius; ++dy) {
            bool improved_possible = false;
            for (const SiteCoord y : {static_cast<SiteCoord>(y0 - dy),
                                      static_cast<SiteCoord>(y0 + dy)}) {
                if (y < 0 || y >= db.floorplan().num_rows() ||
                    (dy == 0 && y != y0)) {
                    continue;
                }
                const double y_cost =
                    std::abs(static_cast<double>(y) - cell.gp_y()) * sh;
                if (y_cost >= best_cost) {
                    continue;
                }
                improved_possible = true;
                for (const SegmentId sid : grid.row_segments(y)) {
                    // Trial insertion on a copy of the segment state.
                    SegmentState trial = state[sid.index()];
                    const auto x = trial.append(cell.gp_x(), cell.width());
                    if (!x) {
                        continue;
                    }
                    const double cost =
                        y_cost + std::abs(static_cast<double>(*x) -
                                          cell.gp_x()) *
                                     sw;
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_seg = sid.value();
                        best_x = *x;
                    }
                }
            }
            if (!improved_possible && best_seg >= 0) {
                break;
            }
        }
        if (best_seg < 0) {
            ++stats.unplaced;
            continue;
        }
        SegmentState& s = state[static_cast<std::size_t>(best_seg)];
        s.append(cell.gp_x(), cell.width());
        s.cells.back() = c;
        seg_assign[static_cast<std::size_t>(best_seg)].push_back(c);
        static_cast<void>(best_x);
    }

    // Commit final per-segment positions.
    for (std::size_t i = 0; i < state.size(); ++i) {
        const SegmentState& s = state[i];
        if (s.cells.empty()) {
            continue;
        }
        std::vector<SiteCoord> xs;
        s.final_positions(xs);
        for (std::size_t j = 0; j < s.cells.size(); ++j) {
            grid.place(db, s.cells[j], xs[j], s.y);
        }
    }
    stats.success = stats.unplaced == 0;
    stats.runtime_s = timer.elapsed_s();
    return stats;
}

}  // namespace mrlg
