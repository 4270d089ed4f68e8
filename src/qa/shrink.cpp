#include "qa/shrink.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"
#include "db/write_cap.hpp"

namespace mrlg::qa {

namespace {

/// Upper bound on oracle re-runs; the shrinker returns its best result so
/// far when exhausted.
constexpr std::size_t kMaxChecks = 2000;

/// Copies `db` keeping only the cells with keep[i] == true (i indexes the
/// cell id space). Floorplan, blockages and fences are copied verbatim;
/// nets and pins are dropped. Cell names, sizes, rail phases, regions, gp
/// and placement state are preserved.
Database subset_design(const Database& db, const std::vector<bool>& keep) {
    GridWriteScope grid_write;
    MRLG_ASSERT(keep.size() == db.num_cells(),
                "subset_design: mask size mismatch");
    Database out{db.floorplan()};
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        if (!keep[i]) {
            continue;
        }
        const Cell& src = db.cell(CellId{static_cast<CellId::underlying>(i)});
        Cell copy(src.name(), src.width(), src.height(), src.rail_phase(),
                  src.fixed());
        copy.set_region(src.region());
        copy.set_gp(src.gp_x(), src.gp_y());
        if (src.placed()) {
            copy.set_pos(src.x(), src.y());
            copy.set_orient(src.orient());
        }
        out.add_cell(std::move(copy));
    }
    return out;
}

std::string run_on_subset(const Database& db, const std::vector<bool>& keep,
                          const CaseCheck& check) {
    Database candidate = subset_design(db, keep);
    return check(candidate);
}

}  // namespace

ShrinkResult shrink_case(const Database& db, const CaseCheck& check) {
    const std::size_t n = db.num_cells();
    std::vector<bool> keep(n, true);

    ShrinkResult result;
    result.cells_before = n;
    result.failure = run_on_subset(db, keep, check);
    ++result.checks;
    MRLG_ASSERT(!result.failure.empty(),
                "shrink_case: the input case does not fail");

    // Classic ddmin over the indices currently kept.
    std::size_t granularity = 2;
    while (true) {
        std::vector<std::size_t> kept;
        for (std::size_t i = 0; i < n; ++i) {
            if (keep[i]) {
                kept.push_back(i);
            }
        }
        if (kept.size() <= 1) {
            break;
        }
        granularity = std::min(granularity, kept.size());

        bool reduced = false;
        const std::size_t chunk =
            (kept.size() + granularity - 1) / granularity;
        for (std::size_t start = 0;
             start < kept.size() && result.checks < kMaxChecks;
             start += chunk) {
            const std::size_t end = std::min(start + chunk, kept.size());
            std::vector<bool> trial = keep;
            for (std::size_t j = start; j < end; ++j) {
                trial[kept[j]] = false;
            }
            const std::string failure = run_on_subset(db, trial, check);
            ++result.checks;
            if (!failure.empty()) {
                keep = std::move(trial);
                result.failure = failure;
                reduced = true;
                break;  // re-partition against the smaller kept set
            }
        }
        if (result.checks >= kMaxChecks) {
            break;
        }
        if (reduced) {
            granularity = 2;
            continue;
        }
        if (granularity >= kept.size()) {
            break;  // single-cell removals no longer help: 1-minimal
        }
        granularity = std::min(kept.size(), granularity * 2);
    }

    result.db = subset_design(db, keep);
    result.cells_after = result.db.num_cells();
    return result;
}

}  // namespace mrlg::qa
