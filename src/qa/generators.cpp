#include "qa/generators.hpp"

#include <cmath>
#include <string>

#include "io/benchmark_gen.hpp"
#include "legalize/greedy.hpp"
#include "db/write_cap.hpp"

namespace mrlg::qa {

namespace {

/// Fractional gp in [lo, hi) guaranteed to stay off the integer lattice,
/// so the cell reads back as a target after a Bookshelf round-trip.
double fractional_pref(Rng& rng, SiteCoord lo, SiteCoord hi) {
    const SiteCoord base = static_cast<SiteCoord>(
        rng.uniform(lo, std::max<SiteCoord>(lo, hi - 1)));
    return static_cast<double>(base) + 0.25 + rng.uniform01() * 0.5;
}

bool is_integral(double v) {
    return std::abs(v - std::round(v)) < 1e-9;
}

/// Marks a cell as placed-by-convention: position plus its integral gp
/// mirror (see generators.hpp).
void set_case_position(Cell& cell, SiteCoord x, SiteCoord y)
    MRLG_REQUIRES(grid_write_cap()) {
    cell.set_pos(x, y);
    cell.set_gp(static_cast<double>(x), static_cast<double>(y));
}

RailPhase random_phase(Rng& rng) {
    return rng.chance(0.5) ? RailPhase::kEven : RailPhase::kOdd;
}

/// Adds 1..max_count random blockages fracturing the rows.
void add_random_blockages(Rng& rng, Floorplan& fp, int max_count) {
    const SiteCoord rows = fp.num_rows();
    const SiteCoord sites = fp.rows().empty() ? 0 : fp.row(0).num_sites;
    const int count = static_cast<int>(rng.uniform(1, max_count));
    for (int i = 0; i < count; ++i) {
        const SiteCoord bw =
            static_cast<SiteCoord>(rng.uniform(2, std::max<SiteCoord>(2, sites / 6)));
        const SiteCoord bh = static_cast<SiteCoord>(
            rng.uniform(1, std::max<SiteCoord>(1, rows / 2)));
        const SiteCoord bx =
            static_cast<SiteCoord>(rng.uniform(0, std::max<SiteCoord>(0, sites - bw)));
        const SiteCoord by =
            static_cast<SiteCoord>(rng.uniform(0, std::max<SiteCoord>(0, rows - bh)));
        fp.add_blockage(Rect{bx, by, bw, bh});
    }
}

}  // namespace

const char* to_string(FuzzScenario s) {
    switch (s) {
        case FuzzScenario::kLegality:
            return "legality";
        case FuzzScenario::kLocal:
            return "local";
        case FuzzScenario::kMllRoundtrip:
            return "mll";
        case FuzzScenario::kRipup:
            return "ripup";
        case FuzzScenario::kWholeDesign:
            return "design";
    }
    return "?";
}

bool scenario_from_string(const std::string& name, FuzzScenario& out) {
    if (name == "legality") {
        out = FuzzScenario::kLegality;
    } else if (name == "local") {
        out = FuzzScenario::kLocal;
    } else if (name == "mll") {
        out = FuzzScenario::kMllRoundtrip;
    } else if (name == "ripup") {
        out = FuzzScenario::kRipup;
    } else if (name == "design") {
        out = FuzzScenario::kWholeDesign;
    } else {
        return false;
    }
    return true;
}

Database gen_overlapping_case(Rng& rng) {
    GridWriteScope grid_write;
    const SiteCoord rows = static_cast<SiteCoord>(rng.uniform(3, 10));
    const SiteCoord sites = static_cast<SiteCoord>(rng.uniform(24, 64));
    Database db{Floorplan(rows, sites)};
    if (rng.chance(0.4)) {
        add_random_blockages(rng, db.floorplan(), 2);
    }
    const bool with_fence = rng.chance(0.2);
    if (with_fence) {
        // Full-height strip at the right edge, ISPD2015 style.
        const SiteCoord fw = std::max<SiteCoord>(4, sites / 4);
        db.floorplan().add_fence(1, Rect{static_cast<SiteCoord>(sites - fw),
                                         0, fw, rows});
    }

    int counter = 0;
    const auto add_at = [&](SiteCoord x, SiteCoord y, SiteCoord w,
                            SiteCoord h) {
        assert_grid_write_cap();
        const CellId id = db.add_cell(Cell('q' + std::to_string(counter++),
                                           w, h, random_phase(rng)));
        Cell& cell = db.cell(id);
        if (with_fence && rng.chance(0.3)) {
            cell.set_region(1);
        }
        set_case_position(cell, x, y);
    };

    const int num_cells = static_cast<int>(rng.uniform(8, 36));
    for (int i = 0; i < num_cells; ++i) {
        const double mode = rng.uniform01();
        const SiteCoord h =
            rng.chance(0.3) ? static_cast<SiteCoord>(rng.uniform(2, 3)) : 1;
        const SiteCoord y = static_cast<SiteCoord>(
            rng.uniform(0, std::max<SiteCoord>(0, rows - h)));
        if (mode < 0.15) {
            // Nested cluster: one wide cell covering 2 short ones.
            const SiteCoord w = static_cast<SiteCoord>(rng.uniform(8, 14));
            const SiteCoord x = static_cast<SiteCoord>(
                rng.uniform(0, std::max<SiteCoord>(0, sites - w)));
            add_at(x, y, w, 1);
            add_at(static_cast<SiteCoord>(x + 1), y, 2, 1);
            add_at(static_cast<SiteCoord>(x + w - 3), y, 2, 1);
        } else if (mode < 0.3) {
            // Exactly-abutting chain (legal; strict-inequality probe).
            SiteCoord x = static_cast<SiteCoord>(
                rng.uniform(0, std::max<SiteCoord>(0, sites - 9)));
            for (int c = 0; c < 3; ++c) {
                const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 3));
                add_at(x, y, w, 1);
                x = static_cast<SiteCoord>(x + w);
            }
        } else {
            const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 8));
            const SiteCoord x = static_cast<SiteCoord>(
                rng.uniform(0, std::max<SiteCoord>(0, sites - w)));
            add_at(x, y, w, h);
        }
    }
    return db;
}

Database gen_packed_case(Rng& rng, int num_targets) {
    GridWriteScope grid_write;
    const SiteCoord rows = static_cast<SiteCoord>(2 * rng.uniform(3, 7));
    const SiteCoord sites = static_cast<SiteCoord>(rng.uniform(40, 100));
    Database db{Floorplan(rows, sites)};
    if (rng.chance(0.35)) {
        add_random_blockages(rng, db.floorplan(), 3);
    }
    // Parity-hostile mix: a burst of even-height cells sharing one phase
    // starves half the rows and squeezes the enumeration window.
    const bool parity_hostile = rng.chance(0.25);
    const RailPhase hostile_phase = random_phase(rng);

    const double density = 0.35 + rng.uniform01() * 0.35;
    const double capacity =
        static_cast<double>(db.floorplan().free_site_area()) * density;
    double used = 0.0;
    int counter = 0;
    while (used < capacity) {
        SiteCoord h = 1;
        RailPhase phase = random_phase(rng);
        if (parity_hostile && rng.chance(0.6)) {
            h = 2;
            phase = hostile_phase;
        } else if (rng.chance(0.25)) {
            h = static_cast<SiteCoord>(rng.uniform(2, 3));
        }
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 6));
        const CellId id = db.add_cell(
            Cell('p' + std::to_string(counter++), w, h, phase));
        db.cell(id).set_gp(
            rng.uniform01() * static_cast<double>(sites - w),
            rng.uniform01() * static_cast<double>(rows - h));
        used += static_cast<double>(w) * static_cast<double>(h);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    GreedyOptions gopts;
    gopts.order = GreedyOptions::Order::kAreaDescending;
    greedy_legalize(db, grid, gopts);  // leftovers simply become targets

    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
        if (cell.fixed()) {
            continue;
        }
        if (cell.placed()) {
            set_case_position(cell, cell.x(), cell.y());
        } else {
            cell.set_gp(fractional_pref(rng, 0, sites),
                        fractional_pref(rng, 0, rows));
        }
    }
    for (int i = 0; i < num_targets; ++i) {
        const SiteCoord h =
            rng.chance(0.4) ? static_cast<SiteCoord>(rng.uniform(2, 3)) : 1;
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 6));
        const CellId id = db.add_cell(Cell('t' + std::to_string(i), w, h,
                                           random_phase(rng)));
        db.cell(id).set_gp(fractional_pref(rng, 0, sites - w),
                           fractional_pref(rng, 0, rows - h));
    }
    return db;
}

Database gen_saturated_case(Rng& rng, int num_targets) {
    GridWriteScope grid_write;
    const SiteCoord rows = static_cast<SiteCoord>(2 * rng.uniform(2, 4));
    const SiteCoord sites = static_cast<SiteCoord>(rng.uniform(20, 40));
    Database db{Floorplan(rows, sites)};
    const double density = 0.85 + rng.uniform01() * 0.1;
    const double capacity =
        static_cast<double>(db.floorplan().free_site_area()) * density;
    double used = 0.0;
    int counter = 0;
    while (used < capacity) {
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        const CellId id = db.add_cell(
            Cell('s' + std::to_string(counter++), w, 1, random_phase(rng)));
        db.cell(id).set_gp(
            rng.uniform01() * static_cast<double>(sites - w),
            rng.uniform01() * static_cast<double>(rows - 1));
        used += static_cast<double>(w);
    }
    SegmentGrid grid = SegmentGrid::build(db);
    GreedyOptions gopts;
    gopts.order = GreedyOptions::Order::kAreaDescending;
    greedy_legalize(db, grid, gopts);
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
        if (cell.fixed()) {
            continue;
        }
        if (cell.placed()) {
            set_case_position(cell, cell.x(), cell.y());
        } else {
            cell.set_gp(fractional_pref(rng, 0, sites),
                        fractional_pref(rng, 0, rows));
        }
    }
    for (int i = 0; i < num_targets; ++i) {
        const SiteCoord h = static_cast<SiteCoord>(rng.uniform(2, 3));
        const SiteCoord w = static_cast<SiteCoord>(rng.uniform(1, 4));
        const CellId id = db.add_cell(Cell('t' + std::to_string(i), w, h,
                                           random_phase(rng)));
        db.cell(id).set_gp(fractional_pref(rng, 0, sites - w),
                           fractional_pref(rng, 0, rows - h));
    }
    return db;
}

Database gen_whole_design_case(Rng& rng) {
    GridWriteScope grid_write;
    GenProfile p;
    p.name = "fuzz-design";
    p.num_single = static_cast<std::size_t>(rng.uniform(60, 180));
    p.num_double = static_cast<std::size_t>(rng.uniform(8, 30));
    if (rng.chance(0.3)) {
        p.num_triple = static_cast<std::size_t>(rng.uniform(1, 8));
    }
    if (rng.chance(0.2)) {
        p.num_quad = static_cast<std::size_t>(rng.uniform(1, 5));
    }
    p.density = 0.4 + rng.uniform01() * 0.3;
    if (rng.chance(0.35)) {
        p.num_blockages = static_cast<int>(rng.uniform(1, 3));
        p.blockage_area_frac = 0.03 + rng.uniform01() * 0.05;
    }
    if (rng.chance(0.2)) {
        p.fence_cell_frac = 0.05 + rng.uniform01() * 0.1;
    }
    p.seed = rng.next_u64();
    GenResult gen = generate_benchmark(p);
    return std::move(gen.db);
}

SegmentGrid materialize_case(Database& db) {
    GridWriteScope grid_write;
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
        if (!cell.fixed()) {
            cell.unplace();
        }
    }
    SegmentGrid grid = SegmentGrid::build(db);
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const CellId id{static_cast<CellId::underlying>(i)};
        Cell& cell = db.cell(id);
        if (cell.fixed() || !is_integral(cell.gp_x()) ||
            !is_integral(cell.gp_y())) {
            continue;
        }
        const SiteCoord x = static_cast<SiteCoord>(std::llround(cell.gp_x()));
        const SiteCoord y = static_cast<SiteCoord>(std::llround(cell.gp_y()));
        bool contained = y >= 0 && y + cell.height() <= db.floorplan().num_rows();
        const Span xs{x, static_cast<SiteCoord>(x + cell.width())};
        for (SiteCoord r = y; contained && r < y + cell.height(); ++r) {
            contained = grid.containing_segment(r, xs, cell.region()).valid();
        }
        if (contained) {
            grid.place(db, id, x, y);
        } else {
            // Deliberate out-of-rows violation: position without grid
            // registration (the legality oracle re-derives from the db).
            cell.set_pos(x, y);
        }
    }
    return grid;
}

bool case_uses_fences(const Database& db) {
    return !db.floorplan().fences().empty();
}

}  // namespace mrlg::qa
