#include "test_helpers.hpp"

#include <algorithm>
#include <cmath>

#include "check/audit.hpp"
#include "legalize/greedy.hpp"
#include "util/assert.hpp"

namespace mrlg::test {

Database empty_design(SiteCoord rows, SiteCoord sites) {
    return Database(Floorplan(rows, sites));
}

CellId add_placed(Database& db, SegmentGrid& grid, const std::string& name,
                  SiteCoord x, SiteCoord y, SiteCoord w, SiteCoord h,
                  RailPhase phase) {
    const CellId id = db.add_cell(Cell(name, w, h, phase));
    db.cell(id).set_gp(static_cast<double>(x), static_cast<double>(y));
    grid.place(db, id, x, y);
    return id;
}

CellId add_unplaced(Database& db, const std::string& name, double gp_x,
                    double gp_y, SiteCoord w, SiteCoord h, RailPhase phase) {
    const CellId id = db.add_cell(Cell(name, w, h, phase));
    db.cell(id).set_gp(gp_x, gp_y);
    return id;
}

::testing::AssertionResult segment_lists_consistent(const Database& db,
                                                    const SegmentGrid& grid) {
    const AuditReport r =
        audit_segment_grid(db, grid, AuditLevel::kCheap, false);
    if (r.ok()) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << r.to_string();
}

Database ripup_starved_design() {
    Database db = empty_design(4, 40);
    for (int i = 0; i < 8; ++i) {
        db.cell(db.add_cell(Cell("r1_" + std::to_string(i), 5, 1)))
            .set_gp(i * 5.0, 1.0);
        db.cell(db.add_cell(Cell("r2_" + std::to_string(i), 5, 1)))
            .set_gp(i * 5.0, 2.0);
    }
    db.cell(db.add_cell(Cell("dbl", 4, 2, RailPhase::kOdd)))
        .set_gp(18.0, 1.0);
    return db;
}

RandomDesign random_legal_design(Rng& rng, SiteCoord rows, SiteCoord sites,
                                 int num_cells, double multi_frac,
                                 SiteCoord max_h) {
    RandomDesign d{empty_design(rows, sites), SegmentGrid{}};
    for (int i = 0; i < num_cells; ++i) {
        const bool multi = rng.uniform01() < multi_frac;
        const SiteCoord h =
            multi ? static_cast<SiteCoord>(rng.uniform(2, max_h)) : 1;
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 6));
        const RailPhase phase =
            rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
        const CellId id =
            d.db.add_cell(Cell("c" + std::to_string(i), w, h, phase));
        d.db.cell(id).set_gp(
            rng.uniform01() * static_cast<double>(sites - w),
            rng.uniform01() * static_cast<double>(rows - h));
    }
    d.grid = SegmentGrid::build(d.db);
    GreedyOptions gopts;
    gopts.order = GreedyOptions::Order::kAreaDescending;
    const GreedyStats s = greedy_legalize(d.db, d.grid, gopts);
    MRLG_ASSERT(s.success, "random design packing failed — lower density");
    return d;
}

double brute_force_hinge_min(const std::vector<SiteCoord>& a,
                             const std::vector<SiteCoord>& b, double pref,
                             SiteCoord lo, SiteCoord hi) {
    double best = std::numeric_limits<double>::max();
    for (SiteCoord x = lo; x <= hi; ++x) {
        double cost = std::abs(static_cast<double>(x) - pref);
        for (const SiteCoord av : a) {
            cost += std::max(0, av - x);
        }
        for (const SiteCoord bv : b) {
            cost += std::max(0, x - bv);
        }
        best = std::min(best, cost);
    }
    return best;
}

}  // namespace mrlg::test
