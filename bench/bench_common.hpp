#pragma once
/// Shared harness utilities for the experiment benches: flag parsing,
/// design preparation, one-shot legalization runs with metric collection,
/// and a minimal JSON emitter for machine-readable benchmark trajectories
/// (`--json <path>`).

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "obs/json.hpp"

namespace mrlg::bench {

/// Minimal flag parser: --key value / --flag.
class Args {
public:
    Args(int argc, char** argv);
    double get_double(const std::string& key, double def) const;
    int get_int(const std::string& key, int def) const;
    bool has_flag(const std::string& key) const;
    std::string get_string(const std::string& key,
                           const std::string& def) const;

private:
    std::vector<std::string> argv_;
};

/// Metrics of one legalization run (one cell of a Table 1 row).
struct RunMetrics {
    bool success = false;
    double disp_avg_sites = 0.0;
    double disp_max_sites = 0.0;
    double dhpwl_pct = 0.0;
    double runtime_s = 0.0;
    double gp_hpwl_m = 0.0;
    std::size_t direct = 0;
    std::size_t mll = 0;
    std::size_t mll_failures = 0;      ///< Failed MLL attempts (retried).
    std::size_t points_evaluated = 0;  ///< Insertion points scored by MLL.
    std::size_t waves = 0;             ///< Plan/commit waves.
    std::size_t conflict_requeues = 0; ///< Footprint-conflict deferrals.
};

/// The JSON emitter lives in the product library now (obs/json.hpp) so
/// run reports and benchmark trajectories share one serialization; these
/// aliases keep the bench call sites unchanged.
using Json = ::mrlg::obs::Json;
using ::mrlg::obs::write_json_file;

/// Unplaces every movable cell so the same design can be legalized again.
void reset_placement(Database& db, SegmentGrid& grid);

/// Legalizes `db` (already generated, cells unplaced) and gathers metrics.
/// Asserts legality of the result (with the run's rail setting).
RunMetrics run_legalization(Database& db, SegmentGrid& grid,
                            const LegalizerOptions& opts);

}  // namespace mrlg::bench
