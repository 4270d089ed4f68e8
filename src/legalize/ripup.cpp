#include "legalize/ripup.hpp"

#include <algorithm>
#include <cmath>

#include "check/audit.hpp"
#include "legalize/greedy.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"

namespace mrlg {

namespace {

/// One reversible sub-step of the transaction.
struct Step {
    enum class Kind { kEvict, kPlaceDirect, kMll } kind;
    CellId cell;
    SiteCoord old_x = 0;  ///< kEvict: position the cell was removed from.
    SiteCoord old_y = 0;
    MllPlan mll;          ///< kMll: commit record for mll_undo.
};

void rollback(Database& db, SegmentGrid& grid, std::vector<Step>& steps)
    MRLG_REQUIRES(grid_write_cap()) {
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        switch (it->kind) {
            case Step::Kind::kEvict:
                grid.place(db, it->cell, it->old_x, it->old_y);
                break;
            case Step::Kind::kPlaceDirect:
                grid.remove(db, it->cell);
                break;
            case Step::Kind::kMll:
                mll_undo(db, grid, it->cell, it->mll);
                break;
        }
    }
    steps.clear();
}

}  // namespace

RipupResult ripup_place(Database& db, SegmentGrid& grid, CellId target,
                        double pref_x, double pref_y,
                        const RipupOptions& opts, MllScratch* scratch) {
    MRLG_OBS_PHASE("ripup");
    MRLG_OBS_COUNT("ripup.attempts", 1);
    RipupResult res;
    const Cell& cell = db.cell(target);
    MRLG_ASSERT(!cell.placed() && !cell.fixed(),
                "rip-up target must be an unplaced movable cell");
    const Floorplan& fp = db.floorplan();
    const SiteCoord h = cell.height();
    const SiteCoord w = cell.width();
    const double sw = fp.site_w_um();
    const double sh = fp.site_h_um();

    // Candidate footprints: rows by |dy| (parity-filtered, as the
    // free-slot search reads them), a few x offsets around the preferred
    // x each.
    OutwardRows rows(fp.num_rows(), h, pref_y, opts.mll.check_rail,
                     cell.rail_phase());
    const SiteCoord x0 = static_cast<SiteCoord>(std::lround(pref_x));
    const std::vector<SiteCoord> x_offsets = {0, -w, w, -3 * w, 3 * w};

    int tried = 0;
    while (const std::optional<SiteCoord> y_row = rows.next()) {
        const SiteCoord y = *y_row;
        for (const SiteCoord dx : x_offsets) {
            if (tried >= kMaxRipupCandidates) {
                return res;
            }
            const SiteCoord x = x0 + dx;
            const Rect fot{x, y, w, h};
            // Footprint must sit on real sites (contained in segments).
            bool contained = true;
            for (SiteCoord r = y; r < y + h; ++r) {
                if (!grid.containing_segment(r, fot.x_span(), cell.region())
                         .valid()) {
                    contained = false;
                    break;
                }
            }
            if (!contained) {
                continue;
            }
            ++tried;
            ++res.candidates_tried;

            // Victims: placed cells overlapping the footprint. Only
            // single-row cells are evicted (multi-row victims would just
            // move the problem around).
            std::vector<CellId> victims;
            bool viable = true;
            for (SiteCoord r = y; r < y + h && viable; ++r) {
                for (const SegmentId sid : grid.row_segments(r)) {
                    const Segment& seg = grid.segment(sid);
                    const auto [first, last] =
                        grid.cells_overlapping(seg, fot.x_span());
                    for (std::size_t i = first; i < last; ++i) {
                        if (seg.cells[i].h > 1) {
                            viable = false;
                            break;
                        }
                        victims.push_back(seg.cells[i].id);
                    }
                    if (!viable) {
                        break;
                    }
                }
            }
            if (!viable) {
                continue;
            }
            // Dedup before applying the eviction cap: a victim collected
            // once per overlapped (row, segment) slot must count once, or
            // viable candidates get rejected by inflated raw counts.
            std::sort(victims.begin(), victims.end());
            victims.erase(std::unique(victims.begin(), victims.end()),
                          victims.end());
            if (victims.size() > opts.max_evictions) {
                continue;
            }

            // --- transaction -------------------------------------------------
            std::vector<Step> steps;
            for (const CellId v : victims) {
                Step s;
                s.kind = Step::Kind::kEvict;
                s.cell = v;
                s.old_x = db.cell(v).x();
                s.old_y = db.cell(v).y();
                grid.remove(db, v);
                steps.push_back(std::move(s));
            }
            MRLG_DCHECK(grid.placeable(fot),
                        "footprint still blocked after eviction");
            grid.place(db, target, x, y);
            {
                Step s;
                s.kind = Step::Kind::kPlaceDirect;
                s.cell = target;
                steps.push_back(std::move(s));
            }
            double cost =
                std::abs(static_cast<double>(x) - pref_x) * sw +
                std::abs(static_cast<double>(y) - pref_y) * sh;

            bool all_back = true;
            for (const CellId v : victims) {
                const Cell& vc = db.cell(v);
                const double vx = vc.gp_x();
                const double vy = vc.gp_y();
                MllPlan r = mll_place(db, grid, v, vx, vy, opts.mll, scratch);
                if (!r.success()) {
                    all_back = false;
                    break;
                }
                cost += r.real_cost_um;
                Step s;
                s.kind = Step::Kind::kMll;
                s.cell = v;
                s.mll = std::move(r);
                steps.push_back(std::move(s));
            }
            if (!all_back) {
                MRLG_OBS_COUNT("ripup.rollbacks", 1);
                rollback(db, grid, steps);
                if (opts.mll.audit >= AuditLevel::kFull) {
                    enforce(audit_segment_grid(db, grid, AuditLevel::kCheap,
                                               opts.mll.check_rail));
                }
                continue;
            }
            if (opts.mll.audit >= AuditLevel::kFull) {
                enforce(audit_segment_grid(db, grid, AuditLevel::kCheap,
                                           opts.mll.check_rail));
            }
            res.success = true;
            res.x = x;
            res.y = y;
            res.evicted = victims.size();
            res.cost_um = cost;
            MRLG_OBS_COUNT("ripup.commits", 1);
            MRLG_OBS_COUNT("ripup.evictions", res.evicted);
            MRLG_OBS_OBSERVE("ripup.cost_um", res.cost_um);
            return res;
        }
    }
    return res;
}

}  // namespace mrlg
