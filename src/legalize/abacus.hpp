#pragma once
/// \file abacus.hpp
/// Abacus (Spindler et al., ISPD'08) single-row legalizer baseline.
///
/// Abacus assigns each cell to a row and maintains per-row clusters whose
/// optimal positions are found in closed form; inserting a cell may shift
/// whole clusters, which is exactly what breaks with multi-row cells (a
/// shift in one row creates overlap in another — paper §1). This
/// implementation therefore *requires a single-row-height design*; calling
/// it on a design with multi-row cells reports failure, reproducing the
/// motivating claim. Used by bench_paper's `baselines` experiment.

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

struct AbacusStats {
    bool success = false;
    bool rejected_multi_row = false;  ///< Design contained multi-row cells.
    std::size_t num_cells = 0;
    std::size_t unplaced = 0;
    double runtime_s = 0.0;
};

/// Legalizes a single-row-height design row by row with cluster collapse.
AbacusStats abacus_legalize(Database& db, SegmentGrid& grid);

}  // namespace mrlg
