#pragma once
/// \file detailed_placer.hpp
/// Wirelength-driven detailed placement with instant legalization — the
/// application the paper builds MLL for (§1, citing Chow et al. ISPD'14
/// and Popovych et al. DAC'14): every cell move goes through the MLL
/// kernel, so the placement is legal after every single step.
///
/// The optimizer is a classic median-move improver: each cell's optimal
/// region is the median of its connected pins (with the cell's own pins
/// excluded); the cell is moved there via remove → mll_place, the exact
/// HPWL delta is measured over the affected nets only, and the move is
/// reverted (exactly, via mll_undo) unless it improves. Multi-row cells
/// are first-class: MLL handles their row/parity constraints.

#include <cstdint>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/mll.hpp"

namespace mrlg {

struct DetailedPlacementOptions {
    MllOptions mll;
    /// Improvement passes over all cells.
    int max_passes = 2;
    /// Process cells in descending estimated gain (distance to median)
    /// instead of id order.
    bool gain_ordered = true;
};

struct DetailedPlacementStats {
    int passes = 0;
    std::size_t moves_attempted = 0;
    std::size_t moves_accepted = 0;
    std::size_t mll_failures = 0;
    double hpwl_before_um = 0.0;
    double hpwl_after_um = 0.0;
    double runtime_s = 0.0;

    double improvement_pct() const {
        return hpwl_before_um > 0
                   ? (1.0 - hpwl_after_um / hpwl_before_um) * 100.0
                   : 0.0;
    }
};

/// Optimizes HPWL over all movable, placed cells of `db`. The placement
/// must be legal on entry; it is legal after every accepted or rejected
/// move (instant legalization).
DetailedPlacementStats detailed_place(Database& db, SegmentGrid& grid,
                                      const DetailedPlacementOptions& opts
                                      = {});

struct SwapStats {
    std::size_t swaps_attempted = 0;
    std::size_t swaps_accepted = 0;
    double hpwl_before_um = 0.0;
    double hpwl_after_um = 0.0;
    double runtime_s = 0.0;
};

/// Global-swap pass: exchanges pairs of placed cells with identical
/// footprint (width, height), compatible rail phases and the same fence
/// region when it lowers HPWL. A swap of identical footprints cannot
/// create overlap, so the placement stays legal trivially — the classic
/// companion operator to the median-move pass. Candidates lie within
/// `radius` sites of a cell's preferred region.
SwapStats swap_pass(Database& db, SegmentGrid& grid, SiteCoord radius = 40);

}  // namespace mrlg
