#pragma once
/// \file fuzz.hpp
/// Seeded differential fuzz harness: generate → oracle battery → shrink →
/// dump replayable Bookshelf repro. Drives everything in src/qa; the
/// tools/mrlg_fuzz CLI and the ctest repro replayer are thin wrappers.
///
/// Determinism contract: run_fuzz(opts) with the same options produces the
/// same report (byte for byte) at any thread count. Each iteration uses a
/// fresh Rng derived from (seed, iteration), so any single failing
/// iteration replays in isolation.

#include <cstdint>
#include <string>
#include <vector>

#include "qa/generators.hpp"
#include "qa/oracles.hpp"

namespace mrlg::qa {

struct FuzzOptions {
    std::uint64_t seed = 1;
    /// Iterations per scenario battery round-robin.
    int iters = 50;
    /// Worker threads of the legalizer's plan fan-out in the design
    /// battery (0 = MRLG_THREADS env default, 1 = serial); the other
    /// batteries run on the calling thread. Results are identical either
    /// way — that is one of the properties under test.
    int num_threads = 0;
    /// Cross-check the MIP solver on small local problems.
    bool exercise_ilp = true;
    /// Run the ddmin shrinker on failures.
    bool shrink = true;
    /// When non-empty, dump each (shrunk) failing case as a Bookshelf
    /// design under this directory.
    std::string repro_dir;
    /// Stop after this many failures.
    int max_failures = 8;
    /// Scenarios to run; empty = all of them.
    std::vector<FuzzScenario> scenarios;
};

struct FuzzFailure {
    FuzzScenario scenario = FuzzScenario::kLegality;
    std::uint64_t seed = 0;   ///< Master seed of the run.
    int iteration = 0;        ///< Failing iteration (replays standalone).
    std::string detail;       ///< Oracle mismatch description.
    std::string repro_path;   ///< .aux path when dumped, else "".
    std::size_t cells_before = 0;  ///< Case size pre-shrink.
    std::size_t cells_after = 0;   ///< Case size post-shrink.
    /// Case uses fence regions, which Bookshelf cannot represent: the
    /// dumped repro replays only approximately — use seed + iteration.
    bool uses_fences = false;
};

struct FuzzReport {
    int iterations_run = 0;
    std::vector<FuzzFailure> failures;
    bool ok() const { return failures.empty(); }
    /// Human-readable multi-line summary (stable across runs).
    std::string summary() const;
};

/// Runs one oracle battery over an in-memory case. Returns "" when every
/// oracle agrees, else the first mismatch description. Mutates `db` (the
/// ripup battery commits successful transactions; others restore state).
/// `num_threads` sizes the design battery's legalizer (FuzzOptions).
std::string check_case(Database& db, FuzzScenario scenario,
                       const LocalDiffOptions& lopts = {},
                       int num_threads = 0);

/// The full loop: generate cases round-robin over the scenario list,
/// check, shrink failures, dump repros.
FuzzReport run_fuzz(const FuzzOptions& opts);

/// Writes `db` as a replayable Bookshelf repro under `dir` (design files
/// <name>.aux/.nodes/.nets/.pl/.scl plus a <name>.scenario sidecar naming
/// the oracle battery). Floorplan blockages are emitted as fixed terminal
/// nodes so they survive the round-trip. Returns the .aux path.
std::string dump_repro(const Database& db, FuzzScenario scenario,
                       const std::string& dir, const std::string& name);

/// Replays a dumped repro: reads the design, re-freezes terminals into
/// blockages, re-materializes placement state from the gp convention and
/// runs the oracle battery named by the .scenario sidecar (or `scenario`
/// when the sidecar is absent). Returns "" when the case passes.
std::string replay_repro(const std::string& aux_path,
                         const LocalDiffOptions& lopts = {});

}  // namespace mrlg::qa
