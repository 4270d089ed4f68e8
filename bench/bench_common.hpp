#pragma once
/// Shared harness of the benches: design reset, checked legalization runs
/// with metric collection, and the JSON emitter. bench_paper and
/// bench_parallel parse their flags with tools/cli_args.hpp; `Args` is
/// left for bench_suite (bench_suite/bench_suite.cpp), which compiles this
/// file with only src/ and bench/ on its include path.

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
    double disp_avg_sites = 0.0;
    double dhpwl_pct = 0.0;
    /// Process CPU time of the legalize_placement call: the work of every
    /// thread, which preemption by other load does not inflate.
    double cpu_s = 0.0;
    double gp_hpwl_m = 0.0;
    LegalizerStats stats;  ///< The run's own stats, runtime_s included.
};

/// The JSON emitter lives in the product library now (obs/json.hpp) so
/// run reports and benchmark trajectories share one serialization; these
/// aliases keep the bench call sites unchanged.
using Json = ::mrlg::obs::Json;
using ::mrlg::obs::write_json_file;

/// Unplaces every movable cell so the same design can be legalized again.
void reset_placement(Database& db, SegmentGrid& grid);

/// Unplaces every movable cell, legalizes `db` and gathers metrics. A run
/// that leaves a cell unplaced or breaks a §2 constraint exits 1 (see
/// require_legal).
RunMetrics run_legalization(Database& db, SegmentGrid& grid,
                            const LegalizerOptions& opts,
                            const std::string& where);

/// Unless every movable cell is placed and the §2 constraints hold (rail
/// parity only with `check_rail`), prints a FATAL line naming `where` and
/// the rail mode, and exits 1.
void require_legal(const Database& db, const SegmentGrid& grid,
                   bool check_rail, const std::string& where);

}  // namespace mrlg::bench
