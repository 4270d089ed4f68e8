/// quickstart — the smallest end-to-end use of mrlg:
/// build a tiny design, scatter a "global placement", legalize it with the
/// multi-row local legalization flow, and print the quality metrics.

#include <iostream>
#include <stdexcept>
#include <string>

#include "db/database.hpp"
#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "legalize/legalizer.hpp"
#include "util/rng.hpp"

int main() try {
    using namespace mrlg;

    // A 20-row x 400-site die.
    Database db{Floorplan(20, 400)};

    // Appends rather than `prefix + std::to_string(i)`: GCC 12 reports a
    // -Wrestrict false positive for that operator+ once inlined.
    const auto numbered = [](const char* prefix, int i) {
        std::string name = prefix;
        name += std::to_string(i);
        return name;
    };

    // 300 single-row cells and 30 double-row cells with random sizes and
    // a noisy, overlapping global placement.
    Rng rng(2016);
    for (int i = 0; i < 300; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(2, 8));
        const CellId id = db.add_cell(Cell(numbered("inst", i), w, 1));
        db.cell(id).set_gp(rng.uniform01() * (400 - w),
                           rng.uniform01() * 19.0);
    }
    for (int i = 0; i < 30; ++i) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        const CellId id = db.add_cell(
            Cell(numbered("ff", i), w, 2, RailPhase::kEven));
        db.cell(id).set_gp(rng.uniform01() * (400 - w),
                           rng.uniform01() * 18.0);
    }

    // A few nets so HPWL is meaningful.
    for (int n = 0; n < 200; ++n) {
        const NetId net = db.add_net(numbered("n", n));
        for (int k = 0; k < 3; ++k) {
            const CellId c{static_cast<CellId::underlying>(
                rng.uniform(0, static_cast<std::int64_t>(db.num_cells()) -
                                   1))};
            db.add_pin(c, net, db.cell(c).width() / 2.0,
                       db.cell(c).height() / 2.0);
        }
    }
    db.finalize_pins();  // builds the cell→pins and net→pins lists

    SegmentGrid grid = SegmentGrid::build(db);

    LegalizerOptions opts;  // paper defaults: Rx=30, Ry=5, rail checked
    const LegalizerStats stats = legalize_placement(db, grid, opts);

    const LegalityReport report = check_legality(db, grid);
    const DisplacementStats disp = displacement_stats(db);

    std::cout << "legalized " << stats.num_cells << " cells in "
              << stats.runtime_s << " s\n"
              << "  direct placements : " << stats.direct_placements << "\n"
              << "  MLL placements    : " << stats.mll_successes << "\n"
              << "  legal             : " << (report.legal ? "yes" : "NO")
              << "\n"
              << "  avg displacement  : " << disp.avg_sites << " sites\n"
              << "  HPWL change       : " << hpwl_delta(db) * 100.0
              << " %\n";
    return report.legal && stats.success ? 0 : 1;
} catch (const std::invalid_argument& e) {
    // A malformed MRLG_THREADS or MRLG_VALIDATE: exit 2, as the tools do.
    std::cerr << e.what() << '\n';
    return 2;
}
