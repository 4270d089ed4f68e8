#pragma once
/// \file ripup.hpp
/// Rip-up-and-reinsert extension (beyond the paper): when MLL cannot place
/// a cell anywhere — typically a multi-row cell whose paired-row capacity
/// was consumed by earlier single-row placements — evict the single-row
/// cells under a candidate footprint, place the target there, and re-insert
/// the evicted cells through MLL. All sub-steps are tracked; if any
/// re-insertion fails the whole transaction is rolled back exactly, so the
/// placement is never left worse than before.
///
/// The paper's Algorithm 1 relies on unbounded random retries instead; see
/// DESIGN.md ("robustness extensions") for why that can spin forever once
/// rows are parity-starved.

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/mll.hpp"

namespace mrlg {

/// Candidate footprints one rip-up examines (rows near the preferred row ×
/// x offsets near the preferred x).
inline constexpr int kMaxRipupCandidates = 24;

struct RipupOptions {
    /// The re-insertions' MLL options. At `mll.audit` kFull the segment
    /// grid is also audited after every committed transaction and after
    /// every rollback (the transaction promises bit-for-bit restoration;
    /// the audit verifies the grid is at least structurally intact). See
    /// check/audit.hpp.
    MllOptions mll;
    /// Refuse to evict more than this many cells per candidate.
    std::size_t max_evictions = 8;
};

struct RipupResult {
    bool success = false;
    SiteCoord x = 0;
    SiteCoord y = 0;
    std::size_t evicted = 0;     ///< Cells ripped and re-inserted.
    std::size_t candidates_tried = 0;
    double cost_um = 0.0;        ///< Target + re-insertion displacement.
};

/// Places the unplaced `target` near (pref_x, pref_y) by transactional
/// rip-up. On failure the placement is bit-for-bit unchanged. `scratch`
/// (optional) is forwarded to the internal re-insertion MLL calls so a
/// caller's per-thread buffers are reused across victims.
RipupResult ripup_place(Database& db, SegmentGrid& grid, CellId target,
                        double pref_x, double pref_y,
                        const RipupOptions& opts = {},
                        MllScratch* scratch = nullptr)
    MRLG_REQUIRES(grid_write_cap());

}  // namespace mrlg
