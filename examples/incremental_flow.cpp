/// incremental_flow — a full physical-synthesis-style loop exercising the
/// whole library: quadratic global placement from the netlist → multi-row
/// legalization → a round of local cell moves with instant legalization
/// (the detailed-placement style of [11,12] the paper cites) → metrics at
/// every stage.

#include <iostream>

#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "gp/quadratic.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "util/rng.hpp"

int main() {
    using namespace mrlg;

    // 1. Design with netlist (generator positions are discarded below).
    GenProfile profile;
    profile.name = "incremental_flow_demo";
    profile.num_single = 3000;
    profile.num_double = 300;
    profile.density = 0.45;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;

    // 2. Our own global placement from the netlist.
    const gp::QuadraticStats qstats =
        gp::quadratic_place(db, /*iterations=*/10);
    std::cout << "quadratic GP: HPWL "
              << qstats.hpwl_um * 1e-6 << " m, max bin util "
              << qstats.final_max_util << "\n";

    // 3. Legalize.
    SegmentGrid grid = SegmentGrid::build(db);
    LegalizerOptions lopts;
    lopts.max_rounds = 128;
    const LegalizerStats lstats = legalize_placement(db, grid, lopts);
    std::cout << "legalized in " << lstats.runtime_s << " s, legal: "
              << (check_legality(db, grid).legal ? "yes" : "NO")
              << ", HPWL " << hpwl_m(db, PositionSource::kLegalized)
              << " m\n";
    if (!lstats.success) {
        return 1;
    }

    // 4. Detailed-placement pass with instant legalization: move each of
    //    200 random cells toward the median of its connected pins; each
    //    move is remove + MLL, so the placement is legal at every step.
    Rng rng(7);
    const auto movable = db.movable_cells();
    const double hpwl_before = hpwl_um(db, PositionSource::kLegalized);
    int improved = 0;
    int attempted = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const CellId c = movable[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(movable.size()) - 1))];
        Cell& cell = db.cell(c);
        if (!cell.placed() || cell.pins().empty()) {
            continue;
        }
        // Median of the other pins of this cell's nets.
        std::vector<double> xs;
        std::vector<double> ys;
        for (const PinId pid : cell.pins()) {
            const Net& net = db.net(db.pin(pid).net);
            for (const PinId qid : net.pins()) {
                const Pin& q = db.pin(qid);
                if (q.cell == c) {
                    continue;
                }
                const Cell& other = db.cell(q.cell);
                xs.push_back(other.x() + q.offset_x);
                ys.push_back(other.y() + q.offset_y);
            }
        }
        if (xs.empty()) {
            continue;
        }
        std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
        std::nth_element(ys.begin(), ys.begin() + ys.size() / 2, ys.end());
        const double tx = xs[xs.size() / 2];
        const double ty = ys[ys.size() / 2];

        ++attempted;
        const SiteCoord old_x = cell.x();
        const SiteCoord old_y = cell.y();
        const double before = hpwl_um(db, PositionSource::kLegalized);
        grid.remove(db, c);
        const MllPlan r = mll_place(db, grid, c, tx, ty);
        if (!r.success()) {
            grid.place(db, c, old_x, old_y);
            continue;
        }
        const double after = hpwl_um(db, PositionSource::kLegalized);
        if (after < before) {
            ++improved;
        } else if (grid.region_free(Rect{old_x, old_y, cell.width(),
                                         cell.height()},
                                    c)) {
            // Not an improvement and the old slot is still free: undo.
            // (If MLL shuffled neighbours into the old slot, keep the move
            // — the placement is legal either way.)
            grid.remove(db, c);
            grid.place(db, c, old_x, old_y);
        }
    }
    const double hpwl_after = hpwl_um(db, PositionSource::kLegalized);
    const LegalityReport rep = check_legality(db, grid);
    std::cout << "detailed placement: " << improved << "/" << attempted
              << " moves kept, HPWL " << hpwl_before * 1e-6 << " m -> "
              << hpwl_after * 1e-6 << " m ("
              << (hpwl_after / hpwl_before - 1.0) * 100 << " %)\n"
              << "final legal: " << (rep.legal ? "yes" : "NO") << "\n";
    return rep.legal && hpwl_after <= hpwl_before * 1.001 ? 0 : 1;
}
