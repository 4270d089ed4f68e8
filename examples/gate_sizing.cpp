/// gate_sizing — the paper's incremental motivation (§1): after a timing
/// optimizer resizes gates, each resized cell must be re-legalized locally
/// without disturbing the rest of the placement. Demonstrates MLL's
/// instant-legalization usage: remove → swap master (wider cell) →
/// mll_place at the old location, and measures how local the disturbance
/// stays.

#include <iostream>
#include <stdexcept>

#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "util/rng.hpp"

int main() try {
    using namespace mrlg;

    // Build and legalize a mid-density design.
    GenProfile profile;
    profile.name = "gate_sizing_demo";
    profile.num_single = 4500;
    profile.num_double = 500;
    profile.density = 0.7;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    SegmentGrid grid = SegmentGrid::build(db);
    if (!legalize_placement(db, grid).success) {
        std::cerr << "initial legalization failed\n";
        return 1;
    }
    std::cout << "initial placement legal: "
              << (check_legality(db, grid).legal ? "yes" : "NO") << "\n";

    // "Size up" 50 random cells: replace each by a sibling 2 sites wider
    // and re-legalize locally at the original spot.
    Rng rng(42);
    const auto movable = db.movable_cells();
    int resized = 0;
    int failed = 0;
    double total_disturbance = 0.0;
    for (int trial = 0; trial < 50; ++trial) {
        const CellId victim = movable[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(movable.size()) - 1))];
        const Cell& old_cell = db.cell(victim);
        if (!old_cell.placed()) {
            continue;
        }
        const double px = old_cell.x();
        const double py = old_cell.y();
        grid.remove(db, victim);

        const CellId upsized = db.add_cell(
            Cell(old_cell.name() + "_x2",
                 old_cell.width() + 2, old_cell.height(),
                 old_cell.rail_phase()));
        db.cell(upsized).set_gp(px, py);

        const MllPlan r = mll_place(db, grid, upsized, px, py);
        if (r.success()) {
            ++resized;
            total_disturbance += r.real_cost_um;
        } else {
            // Roll back: MLL left everything untouched (abort semantics),
            // so the original cell simply returns to its slot.
            grid.place(db, victim, static_cast<SiteCoord>(px),
                       static_cast<SiteCoord>(py));
            ++failed;
        }
    }

    LegalityOptions lopts;
    lopts.require_all_placed = false;  // swapped-out originals stay out
    const LegalityReport rep = check_legality(db, grid, lopts);
    std::cout << "resized " << resized << " cells (+2 sites each), "
              << failed << " rolled back\n"
              << "placement still legal: " << (rep.legal ? "yes" : "NO")
              << "\n"
              << "avg local disturbance per resize: "
              << (resized > 0 ? total_disturbance /
                                    static_cast<double>(resized) /
                                    db.floorplan().site_w_um()
                              : 0.0)
              << " site-widths of displacement\n";
    return rep.legal ? 0 : 1;
} catch (const std::invalid_argument& e) {
    // A malformed MRLG_THREADS or MRLG_VALIDATE: exit 2, as the tools do.
    std::cerr << e.what() << '\n';
    return 2;
}
