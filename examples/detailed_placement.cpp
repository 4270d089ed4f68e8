/// detailed_placement — the paper's primary flow (§6): take an ISPD2015-
/// style design with a global placement, legalize it with the multi-row
/// algorithm, and report Table-1-style metrics. Also demonstrates the
/// exact ("ILP") configuration on the same design and writes the legalized
/// result in Bookshelf format.
///
/// Usage: detailed_placement [cells] [density] [out_dir]

#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "legalize/legalizer.hpp"

int main(int argc, char** argv) try {
    using namespace mrlg;
    const std::size_t cells =
        argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 20000;
    const double density = argc > 2 ? std::atof(argv[2]) : 0.6;
    const std::string out_dir = argc > 3 ? argv[3] : "";

    // 1. Synthesize the design (cells, nets, macros, GP positions).
    GenProfile profile;
    profile.name = "detailed_placement_demo";
    profile.num_single = cells * 9 / 10;
    profile.num_double = cells / 10;  // the paper's 10% double-height mix
    profile.density = density;
    profile.num_blockages = 3;
    profile.blockage_area_frac = 0.03;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    std::cout << "design: " << db.num_single_row_cells()
              << " single-row + " << db.num_multi_row_cells()
              << " double-row cells, density " << db.density() << "\n"
              << "GP HPWL: " << hpwl_m(db, PositionSource::kGlobalPlacement)
              << " m\n\n";

    // 2. Legalize with the paper's defaults (Rx=30, Ry=5, rail checked).
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions opts;
    const LegalizerStats stats = legalize_placement(db, grid, opts);
    const LegalityReport legal = check_legality(db, grid);
    const DisplacementStats disp = displacement_stats(db);

    std::cout << "MLL legalization (" << stats.runtime_s << " s):\n"
              << "  legal              : " << (legal.legal ? "yes" : "NO")
              << "\n"
              << "  direct / MLL / fb  : " << stats.direct_placements
              << " / " << stats.mll_successes << " / "
              << stats.fallback_placements << "\n"
              << "  avg disp (sites)   : " << disp.avg_sites << "\n"
              << "  max disp (sites)   : " << disp.max_sites << "\n"
              << "  HPWL change        : " << hpwl_delta(db) * 100 << " %\n";

    // 3. Same design through the exact local solver (Table 1's "ILP").
    for (const CellId c : db.movable_cells()) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }
    LegalizerOptions exact = opts;
    exact.mll.exact_evaluation = true;
    const LegalizerStats estats = legalize_placement(db, grid, exact);
    const DisplacementStats edisp = displacement_stats(db);
    std::cout << "\nexact / ILP configuration (" << estats.runtime_s
              << " s):\n"
              << "  avg disp (sites)   : " << edisp.avg_sites << "\n"
              << "  runtime ratio      : "
              << (stats.runtime_s > 0 ? estats.runtime_s / stats.runtime_s
                                      : 0)
              << "x\n";

    // 4. Optionally export the legalized design.
    if (!out_dir.empty()) {
        write_bookshelf(db, out_dir, profile.name, false);
        std::cout << "\nwrote " << out_dir << "/" << profile.name
                  << ".{aux,nodes,nets,pl,scl}\n";
    }
    return legal.legal && stats.success ? 0 : 1;
} catch (const std::invalid_argument& e) {
    // A malformed MRLG_THREADS or MRLG_VALIDATE: exit 2, as the tools do.
    std::cerr << e.what() << '\n';
    return 2;
}
