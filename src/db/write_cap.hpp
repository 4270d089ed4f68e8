#pragma once
/// \file write_cap.hpp
/// GridWriteCap: the capability ("role") that stands for the exclusive
/// right to mutate the shared placement state — the Database's cells
/// (positions, gp inputs, construction) and the SegmentGrid's segment
/// lists.
///
/// Phase discipline of the region-parallel pipeline (DESIGN.md §2c):
///
///   plan    read-only, concurrent   — mll_plan and everything it calls
///                                     must not need GridWriteCap
///   commit  mutating, serial        — mll_commit / rip-up / direct place
///                                     run with GridWriteCap held
///
/// Every mutating entry point of Database / SegmentGrid / Cell is
/// annotated MRLG_REQUIRES(grid_write_cap()); the serial orchestration
/// entry points (legalize_placement, the baselines, the detailed placer,
/// design construction in io/qa) acquire it with a GridWriteScope. Under
/// clang -Wthread-safety (the `analyze-effects` preset) a call chain from
/// the plan phase into a mutator therefore fails to compile; under other
/// compilers the annotations vanish and the types below cost nothing.
///
/// The capability is a role, not a lock: acquiring it performs no
/// synchronization (the pipeline's serial phases are already
/// single-threaded by construction), and nested GridWriteScope objects
/// are harmless no-ops. `tools/mrlg_lint.py effects` enforces the read side
/// of the same contract statically, without clang (docs/ANALYSIS.md).

#include "util/annotations.hpp"

namespace mrlg {

/// The capability object. One per process; its address is its identity
/// (clang matches capability expressions syntactically, so every
/// annotation refers to it through grid_write_cap()).
class MRLG_CAPABILITY("mrlg::GridWriteCap") GridWriteCap {
public:
    GridWriteCap() = default;
    GridWriteCap(const GridWriteCap&) = delete;
    GridWriteCap& operator=(const GridWriteCap&) = delete;

    /// No-op role transitions — annotation carriers only.
    void acquire() MRLG_ACQUIRE() {}
    void release() MRLG_RELEASE() {}
};

/// The process-wide grid-write capability.
inline GridWriteCap& grid_write_cap() {
    static GridWriteCap cap;
    return cap;
}

/// Re-establishes "GridWriteCap is held" for the analysis inside a lambda
/// or callback whose enclosing function holds it (clang analyzes lambda
/// bodies as separate functions with an empty capability set). Call it as
/// the first statement of serial commit lambdas; it compiles to nothing.
inline void assert_grid_write_cap() MRLG_ASSERT_CAPABILITY(grid_write_cap()) {}

/// RAII acquisition of GridWriteCap for a serial mutating phase. The
/// non-trivial (empty) constructor/destructor keep -Wunused-variable quiet
/// at zero cost.
class MRLG_SCOPED_CAPABILITY GridWriteScope {
public:
    GridWriteScope() MRLG_ACQUIRE(grid_write_cap()) {}
    ~GridWriteScope() MRLG_RELEASE() {}
    GridWriteScope(const GridWriteScope&) = delete;
    GridWriteScope& operator=(const GridWriteScope&) = delete;
};

}  // namespace mrlg
