#pragma once
/// \file snapshot.hpp
/// Full placement-state snapshot for transaction oracles.
///
/// MLL undo and the rip-up rollback both promise bit-for-bit restoration
/// of the database positions *and* the segment-grid bookkeeping. The
/// invariant auditors (check/audit.hpp) can only say the state is
/// structurally sound; a snapshot taken before the transaction and
/// compared after it proves the state is the *same* one. Capture is O(n)
/// and allocation-heavy, so this lives in the QA layer, never on the
/// legalizer's hot path.

#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg::qa {

struct PlacementSnapshot {
    struct CellState {
        bool placed = false;
        SiteCoord x = 0;
        SiteCoord y = 0;
        Orient orient = Orient::kN;
        double gp_x = 0.0;
        double gp_y = 0.0;

        friend bool operator==(const CellState&,
                               const CellState&) = default;
    };

    /// One entry per Database cell, in id order.
    std::vector<CellState> cells;
    /// One list per segment, in segment-id order — the grid's bookkeeping,
    /// including list order (an invariant the transactions must preserve)
    /// and every slot's copied geometry.
    std::vector<std::vector<SegmentSlot>> segment_cells;

    friend bool operator==(const PlacementSnapshot&,
                           const PlacementSnapshot&) = default;
};

/// Captures every cell's placement state and every segment's slot list.
PlacementSnapshot capture_snapshot(const Database& db,
                                   const SegmentGrid& grid);

/// Human-readable first-differences between two snapshots ("" when equal):
/// names the first few cells whose state changed and the first segment
/// whose list diverged. `db` supplies cell names for the message.
std::string describe_snapshot_diff(const PlacementSnapshot& before,
                                   const PlacementSnapshot& after,
                                   const Database& db);

}  // namespace mrlg::qa
