#pragma once
/// \file shrink.hpp
/// Delta-debugging minimizer for failing fuzz cases.
///
/// Given a case Database whose oracle battery reports a mismatch, the
/// shrinker searches for a minimal cell subset that still reproduces *a*
/// failure (ddmin: any failure counts, so a shrink step may surface a
/// simpler bug hiding behind the original one — that is a feature). The
/// resulting database keeps the original floorplan, blockages and fences;
/// only cells are removed. Fully deterministic: fixed partition order, no
/// randomness.

#include <functional>
#include <string>

#include "db/database.hpp"

namespace mrlg::qa {

/// Re-runs the oracle battery on a candidate case; returns "" when it
/// passes and a mismatch description when it fails. The callback owns any
/// scenario-specific setup (materialize_case etc.) and must be
/// deterministic. It receives a fresh copy it may freely mutate.
using CaseCheck = std::function<std::string(Database&)>;

struct ShrinkResult {
    Database db;          ///< Minimal failing case found.
    std::string failure;  ///< Failure reported on the minimal case.
    std::size_t checks = 0;   ///< Oracle re-runs spent.
    std::size_t cells_before = 0;
    std::size_t cells_after = 0;
};

/// ddmin over the cell set: repeatedly tries dropping chunks of cells,
/// keeping any reduction that still fails `check`, refining the chunk
/// granularity until single-cell removals no longer help, or until 2000
/// oracle re-runs are spent (then the best result so far is returned).
/// Nets and pins are dropped (no oracle consults them). `db` itself is
/// not modified. Requires that check(copy of db) fails (asserts).
ShrinkResult shrink_case(const Database& db, const CaseCheck& check);

}  // namespace mrlg::qa
