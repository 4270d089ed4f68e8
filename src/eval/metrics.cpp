#include "eval/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.hpp"

namespace mrlg {

namespace {

/// Pin position in microns under the chosen source.
struct PinPos {
    double x_um;
    double y_um;
};

PinPos pin_position(const Database& db, const Pin& pin,
                    PositionSource source) {
    const Cell& cell = db.cell(pin.cell);
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    double cx;
    double cy;
    if (cell.fixed() || source == PositionSource::kLegalized) {
        cx = static_cast<double>(cell.x());
        cy = static_cast<double>(cell.y());
    } else {
        cx = cell.gp_x();
        cy = cell.gp_y();
    }
    return PinPos{(cx + pin.offset_x) * sw, (cy + pin.offset_y) * sh};
}

}  // namespace

double hpwl_um(const Database& db, PositionSource source) {
    MRLG_OBS_PHASE("eval.hpwl");
    // Nets are summed in blocks of kBlock, and the block sums are added
    // in order: the association behind every recorded HPWL. The goldens
    // have fewer than kBlock nets, so they could not catch a change to it.
    constexpr std::size_t kBlock = 512;
    const std::size_t num_nets = db.nets().size();
    double total = 0.0;
    for (std::size_t begin = 0; begin < num_nets; begin += kBlock) {
        const std::size_t end = std::min(num_nets, begin + kBlock);
        double block = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
            const std::span<const PinId> pins =
                db.net_pins(NetId{static_cast<NetId::underlying>(i)});
            if (pins.size() < 2) {
                continue;
            }
            double x_lo = std::numeric_limits<double>::max();
            double x_hi = std::numeric_limits<double>::lowest();
            double y_lo = std::numeric_limits<double>::max();
            double y_hi = std::numeric_limits<double>::lowest();
            for (const PinId pid : pins) {
                const PinPos p = pin_position(db, db.pin(pid), source);
                x_lo = std::min(x_lo, p.x_um);
                x_hi = std::max(x_hi, p.x_um);
                y_lo = std::min(y_lo, p.y_um);
                y_hi = std::max(y_hi, p.y_um);
            }
            block += (x_hi - x_lo) + (y_hi - y_lo);
        }
        total += block;
    }
    return total;
}

double hpwl_delta(const Database& db, int /*num_threads*/) {
    const double gp = hpwl_um(db, PositionSource::kGlobalPlacement);
    if (gp <= 0.0) {
        return 0.0;
    }
    const double legal = hpwl_um(db, PositionSource::kLegalized);
    return (legal - gp) / gp;
}

DisplacementStats displacement_stats(const Database& db) {
    MRLG_OBS_PHASE("eval.displacement");
    DisplacementStats stats;
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    for (const Cell& cell : db.cells()) {
        if (cell.fixed() || !cell.placed()) {
            continue;
        }
        const double dx = std::abs(static_cast<double>(cell.x()) - cell.gp_x());
        const double dy = std::abs(static_cast<double>(cell.y()) - cell.gp_y());
        const double um = dx * sw + dy * sh;
        stats.total_um += um;
        stats.max_sites = std::max(stats.max_sites, um / sw);
        ++stats.num_cells;
    }
    if (stats.num_cells > 0) {
        stats.avg_sites =
            stats.total_um / sw / static_cast<double>(stats.num_cells);
    }
    return stats;
}

}  // namespace mrlg
