#pragma once
/// \file profiles.hpp
/// The 20 ISPD2015 benchmark profiles of the paper's Table 1 (name,
/// single-/double-row cell counts, design density), plus the paper's
/// published results for side-by-side reporting in the bench harness and
/// EXPERIMENTS.md.

#include <vector>

#include "io/benchmark_gen.hpp"

namespace mrlg {

/// Published Table 1 numbers for one benchmark (aligned experiment).
struct Table1Paper {
    double gp_hpwl_m;      ///< "GP HPWL(m)".
    double disp_ilp;       ///< Avg displacement (sites), ILP.
    double disp_ours;      ///< Avg displacement (sites), Ours.
    double dhpwl_ilp_pct;  ///< ΔHPWL %, ILP.
    double dhpwl_ours_pct; ///< ΔHPWL %, Ours.
    double rt_ilp_s;       ///< Runtime (s), ILP.
    double rt_ours_s;      ///< Runtime (s), Ours.
};

struct Table1Entry {
    GenProfile profile;   ///< Generator profile at scale 1.0.
    Table1Paper paper;    ///< Power-line-aligned published results.
};

/// All 20 Table 1 rows. `scale` scales the cell counts (1.0 = paper size;
/// benches default to a laptop-friendly fraction). Counts are floored at
/// 400 single / 40 double cells so small scales stay meaningful.
std::vector<Table1Entry> table1_benchmarks(double scale = 1.0);

/// The synthetic thread-scaling design family that bench_parallel sweeps
/// (two bench_suite workloads also build on parallel_l): parallel_s
/// (2.2k cells), parallel_m (8.8k), parallel_l (26.4k), generator seed
/// 11 + `seed_offset`. Returns false when `name` is not one of the
/// family (out is untouched).
bool parallel_profile(const std::string& name, double scale,
                      int seed_offset, GenProfile& out);

/// The family's names, smallest design first.
std::vector<std::string> parallel_profile_names();

}  // namespace mrlg
