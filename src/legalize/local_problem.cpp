#include "legalize/local_problem.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace mrlg {

LocalProblem LocalProblem::build(const Database& db,
                                 const LocalRegion& region,
                                 LocalProblemScratch* /*scratch*/) {
    // Filled in a per-thread buffer that keeps its capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local LocalProblem filled;
    filled.rebuild(db, region);
    return filled;
}

void LocalProblem::rebuild(const Database& db, const LocalRegion& region) {
    y0_ = region.y0();
    site_w_um_ = db.floorplan().site_w_um();
    site_h_um_ = db.floorplan().site_h_um();

    // Cells in local_cells() order (x order), with the geometry the region
    // copied from the segment slots; each reserves h slots of the pool.
    cells_.clear();
    int pool_size = 0;
    const std::vector<CellId>& ids = region.local_cells();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const Rect& r = region.local_rects()[i];
        LpCell lc;
        lc.id = ids[i];
        lc.x = r.x;
        lc.w = r.w;
        lc.y = r.y;
        lc.h = r.h;
        lc.k0 = region.row_index(r.y);
        MRLG_ASSERT(lc.k0 >= 0, "local cell outside region rows");
        lc.pos0 = pool_size;
        pool_size += static_cast<int>(lc.h);
        cells_.push_back(lc);
    }
    pos_pool_.assign(static_cast<std::size_t>(pool_size), -1);

    // Rows: the region's row slots already carry local indices.
    const int n = num_cells();
    rows_.assign(static_cast<std::size_t>(region.height()), RowHeader{});
    row_cells_.clear();
    for (int k = 0; k < region.height(); ++k) {
        if (!region.has_row(k)) {
            continue;
        }
        const LocalRow lr = region.row(k);
        RowHeader& row = rows_[static_cast<std::size_t>(k)];
        row.present = true;
        row.y = lr.y;
        row.span = lr.span;
        row.begin = static_cast<int>(row_cells_.size());
        for (const int ci : lr.local) {
            MRLG_ASSERT(ci >= 0 && ci < n,
                        "row lists a cell missing from local set");
            const LpCell& lc = cells_[static_cast<std::size_t>(ci)];
            const int j = k - lc.k0;
            MRLG_ASSERT(j >= 0 && j < lc.h, "cell listed on a row outside "
                                            "its footprint");
            pos_pool_[static_cast<std::size_t>(lc.pos0 + j)] =
                static_cast<int>(row_cells_.size()) - row.begin;
            row_cells_.push_back(ci);
        }
        row.end = static_cast<int>(row_cells_.size());
    }
    MRLG_ASSERT(std::find(pos_pool_.begin(), pos_pool_.end(), -1) ==
                    pos_pool_.end(),
                "local cell missing from a row list");
}

}  // namespace mrlg
