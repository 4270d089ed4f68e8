#pragma once
/// \file run_report.hpp
/// The canonical machine-readable "run report": one JSON document carrying
/// everything the paper's Table 1 reports per run (HPWL delta, average/max
/// displacement, runtime, legality) plus the obs tracer's phase tree,
/// counters, and histograms, the resolved options, and design statistics.
/// Schema: docs/REPORT.md (`schema_version` gates golden compatibility).
///
/// Every reporting surface emits this one shape: `tools/mrlg_legalize
/// --report`, `mrlg_fuzz --report`, and the golden regression suite
/// (tests/test_golden.cpp). With a deterministic clock (obs/clock.hpp
/// TickClock) a report is byte-for-byte reproducible across runs and
/// thread counts; wall-clock reports add physical `runtime_s`.

#include <string>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "legalize/legalizer.hpp"
#include "obs/json.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"

namespace mrlg::obs {

struct RunReportSpec {
    std::string tool;    ///< Producing binary / harness name.
    std::string design;  ///< Design or benchmark name.
    /// Design under report; when null the design/quality blocks are
    /// omitted (e.g. a fuzz campaign has no single design).
    const Database* db = nullptr;
    const SegmentGrid* grid = nullptr;
    /// Rail mode the run used (quality block re-checks legality with it).
    bool check_rail = true;
    /// Plan fan-out threads the run was given (0 = the MRLG_THREADS
    /// environment default). `options.num_threads` records it as given;
    /// the timeline block resolves it.
    int num_threads = 0;
    /// Options/stats of the legalization run; null omits their blocks.
    const LegalizerOptions* options = nullptr;
    const LegalizerStats* stats = nullptr;
    /// Metrics source; null falls back to the ambient current_tracer(),
    /// and when that is also null the metrics block is omitted.
    Tracer* tracer = nullptr;
    /// Wall-clock execution timeline; null falls back to the ambient
    /// current_timeline(). Only consulted under a wall clock — the
    /// derived `timeline` block (schema v2) is excluded from
    /// deterministic reports, like `environment`.
    const Timeline* timeline = nullptr;
};

/// Current report schema (docs/REPORT.md). v2 adds the wall-clock-only
/// `timeline` and `memory` blocks and `environment.pool_workers_active`.
/// v3 removes `options.pipeline` (the legalizer has one round loop).
inline constexpr int kRunReportSchemaVersion = 3;

/// The machine facts behind any wall-clock number, from a
/// ThreadPool::config() snapshot (docs/REPORT.md `environment`). Take it
/// after the timed work, so that `pool_workers_active` says what ran.
Json environment_json();

/// Assembles the report. Runs the legality checker and quality metrics
/// over `db`/`grid` when present (read-only).
Json make_run_report(const RunReportSpec& spec);

/// Convenience: make_run_report + write_json_file.
bool write_run_report(const std::string& path, const RunReportSpec& spec);

}  // namespace mrlg::obs
