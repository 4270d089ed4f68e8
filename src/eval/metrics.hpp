#pragma once
/// \file metrics.hpp
/// Quality metrics reported in the paper's Table 1: HPWL (metres),
/// average displacement (site widths), and their deltas.

#include "db/database.hpp"

namespace mrlg {

/// Which coordinates to evaluate a cell at.
enum class PositionSource {
    kGlobalPlacement,  ///< Cell::gp_x/gp_y (fractional sites).
    kLegalized,        ///< Cell::x/y (site-aligned).
};

/// Half-perimeter wirelength in microns, summed over all nets with >= 2
/// pins. Pins on fixed cells use the fixed position regardless of source.
/// One serial pass over the nets in id order.
double hpwl_um(const Database& db, PositionSource source);

/// HPWL in metres (the unit of Table 1's "GP HPWL(m)" column).
inline double hpwl_m(const Database& db, PositionSource source) {
    return hpwl_um(db, source) * 1e-6;
}

/// Relative wirelength change of the legalized placement vs the global
/// placement: (legal - gp) / gp. Matches Table 1's ΔHPWL column.
/// `num_threads` is read by nothing: kept only because
/// bench_suite/bench_suite.cpp passes it; ROADMAP item 1 deletes it.
double hpwl_delta(const Database& db, int num_threads = 0);

struct DisplacementStats {
    double total_um = 0.0;    ///< Σ |dx|·site_w + |dy|·site_h over cells.
    double avg_sites = 0.0;   ///< total_um / site_w / #placed movable cells.
    double max_sites = 0.0;   ///< max per-cell displacement, site widths.
    std::size_t num_cells = 0;
};

/// Displacement of the legalized placement from the global placement
/// (paper objective, §2). Unplaced cells are skipped.
DisplacementStats displacement_stats(const Database& db);

}  // namespace mrlg
