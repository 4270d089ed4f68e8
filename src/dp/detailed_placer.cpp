#include "dp/detailed_placer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "dp/net_cache.hpp"
#include "eval/legality.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// Accept a move or swap only if it improves total HPWL by at least this
/// much (um).
constexpr double kMinGainUm = 1e-9;
/// detailed_place skips cells whose preferred spot is within this many
/// sites of the current position (saves useless churn).
constexpr double kMinMoveSites = 1.0;

/// Median of the other pins of the cell's nets; nullopt when unconnected.
std::optional<std::pair<double, double>> median_target(const Database& db,
                                                       CellId c) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const PinId pid : db.cell(c).pins()) {
        const Net& net = db.net(db.pin(pid).net);
        for (const PinId qid : net.pins()) {
            const Pin& q = db.pin(qid);
            if (q.cell == c) {
                continue;
            }
            const Cell& other = db.cell(q.cell);
            xs.push_back(static_cast<double>(other.x()) + q.offset_x);
            ys.push_back(static_cast<double>(other.y()) + q.offset_y);
        }
    }
    if (xs.empty()) {
        return std::nullopt;
    }
    const auto mid_x = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
    const auto mid_y = ys.begin() + static_cast<std::ptrdiff_t>(ys.size() / 2);
    std::nth_element(xs.begin(), mid_x, xs.end());
    std::nth_element(ys.begin(), mid_y, ys.end());
    return std::make_pair(*mid_x, *mid_y);
}

/// Nets whose HPWL a move can change: the target's nets plus the nets of
/// every shifted cell. Sorted: the caller folds float deltas over this
/// list, so its order must not depend on hash layout.
std::vector<NetId> affected_nets(const Database& db, CellId target,
                                 const MllResult& r) {
    std::vector<NetId> nets;
    auto add_cell_nets = [&](CellId c) {
        for (const PinId pid : db.cell(c).pins()) {
            nets.push_back(db.pin(pid).net);
        }
    };
    add_cell_nets(target);
    for (const auto& [id, old_x] : r.moved) {
        static_cast<void>(old_x);
        add_cell_nets(id);
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
    return nets;
}

}  // namespace

DetailedPlacementStats detailed_place(Database& db, SegmentGrid& grid,
                                      const DetailedPlacementOptions& opts) {
    GridWriteScope grid_write;
    MRLG_OBS_PHASE("dp.place");
    Timer timer;
    DetailedPlacementStats stats;
    NetHpwlCache cache(db);
    stats.hpwl_before_um = cache.total();

    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();

    for (int pass = 0; pass < opts.max_passes; ++pass) {
        MRLG_OBS_PHASE("dp.pass");
        stats.passes = pass + 1;
        std::size_t accepted_this_pass = 0;

        // Candidate order: by estimated gain (Manhattan distance to the
        // median region, microns).
        struct Candidate {
            CellId cell;
            double gain;
            double tx;
            double ty;
        };
        std::vector<Candidate> cands;
        for (const CellId c : db.movable_cells()) {
            const Cell& cell = db.cell(c);
            if (!cell.placed() || cell.pins().empty()) {
                continue;
            }
            const auto med = median_target(db, c);
            if (!med) {
                continue;
            }
            const double dx = std::abs(med->first - cell.x());
            const double dy = std::abs(med->second - cell.y());
            if (dx + dy < kMinMoveSites) {
                continue;
            }
            cands.push_back(Candidate{c, dx * sw + dy * sh, med->first,
                                      med->second});
        }
        if (opts.gain_ordered) {
            std::stable_sort(cands.begin(), cands.end(),
                             [](const Candidate& a, const Candidate& b) {
                                 return a.gain > b.gain;
                             });
        }

        for (const Candidate& cand : cands) {
            Cell& cell = db.cell(cand.cell);
            if (!cell.placed()) {
                continue;  // displaced by an earlier move's shuffle? no —
                           // MLL never unplaces; defensive only
            }
            // Re-derive the target: earlier accepted moves shift medians.
            const auto med = median_target(db, cand.cell);
            if (!med) {
                continue;
            }
            const SiteCoord old_x = cell.x();
            const SiteCoord old_y = cell.y();

            ++stats.moves_attempted;
            grid.remove(db, cand.cell);
            const MllResult r =
                mll_place(db, grid, cand.cell, med->first, med->second,
                          opts.mll);
            if (!r.success()) {
                ++stats.mll_failures;
                grid.place(db, cand.cell, old_x, old_y);
                continue;
            }
            // Exact delta over the affected nets only.
            double delta = 0.0;
            const std::vector<NetId> nets =
                affected_nets(db, cand.cell, r);
            for (const NetId n : nets) {
                delta += cache.net_hpwl(n) - cache.cached(n);
            }
            if (delta <= -kMinGainUm) {
                for (const NetId n : nets) {
                    cache.refresh(n);
                }
                ++stats.moves_accepted;
                ++accepted_this_pass;
            } else {
                mll_undo(db, grid, cand.cell, r);
                grid.place(db, cand.cell, old_x, old_y);
            }
        }
        if (accepted_this_pass == 0) {
            break;  // converged
        }
    }

    stats.hpwl_after_um = cache.total();
    stats.runtime_s = timer.elapsed_s();
    MRLG_OBS_COUNT("dp.passes", stats.passes);
    MRLG_OBS_COUNT("dp.moves_attempted", stats.moves_attempted);
    MRLG_OBS_COUNT("dp.moves_accepted", stats.moves_accepted);
    MRLG_OBS_COUNT("dp.mll_failures", stats.mll_failures);
    return stats;
}

SwapStats swap_pass(Database& db, SegmentGrid& grid, SiteCoord radius) {
    GridWriteScope grid_write;
    Timer timer;
    SwapStats stats;
    NetHpwlCache cache(db);
    stats.hpwl_before_um = cache.total();
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();

    // Spatial buckets keyed by footprint (w, h) for candidate lookup.
    struct Key {
        SiteCoord w;
        SiteCoord h;
        bool operator==(const Key&) const = default;
    };
    struct KeyHash {
        std::size_t operator()(const Key& k) const {
            return std::hash<int>{}(k.w * 131 + k.h);
        }
    };

    auto swap_cells = [&](CellId a, CellId b) {
        assert_grid_write_cap();
        Cell& ca = db.cell(a);
        Cell& cb = db.cell(b);
        const SiteCoord ax = ca.x();
        const SiteCoord ay = ca.y();
        const SiteCoord bx = cb.x();
        const SiteCoord by = cb.y();
        grid.remove(db, a);
        grid.remove(db, b);
        grid.place(db, a, bx, by);
        grid.place(db, b, ax, ay);
    };

    MRLG_OBS_PHASE("dp.swap");
    std::unordered_map<Key, std::vector<CellId>, KeyHash> buckets;
    for (const CellId c : db.movable_cells()) {
        const Cell& cell = db.cell(c);
        if (cell.placed()) {
            buckets[Key{cell.width(), cell.height()}].push_back(c);
        }
    }
    for (const CellId a : db.movable_cells()) {
        const Cell& ca = db.cell(a);
        if (!ca.placed() || ca.pins().empty()) {
            continue;
        }
        const auto med = median_target(db, a);
        if (!med) {
            continue;
        }
        // Skip cells already near their optimal region.
        if (std::abs(med->first - ca.x()) + std::abs(med->second - ca.y()) <
            2.0) {
            continue;
        }
        // Best same-footprint candidate near the target region.
        const auto it = buckets.find(Key{ca.width(), ca.height()});
        if (it == buckets.end()) {
            continue;
        }
        CellId best;
        double best_gain_est = 0.0;
        for (const CellId b : it->second) {
            if (b == a) {
                continue;
            }
            const Cell& cb = db.cell(b);
            if (!cb.placed() || cb.region() != ca.region()) {
                continue;
            }
            if (std::abs(cb.x() - med->first) > radius ||
                std::abs(static_cast<double>(cb.y()) - med->second) * sh / sw >
                    static_cast<double>(radius)) {
                continue;
            }
            // Rail compatibility in both directions.
            if (!rail_compatible(cb.y(), ca.height(), ca.rail_phase()) ||
                !rail_compatible(ca.y(), cb.height(), cb.rail_phase())) {
                continue;
            }
            // Cheap estimate: how much closer a gets to its median.
            const double now =
                std::abs(ca.x() - med->first) * sw +
                std::abs(static_cast<double>(ca.y()) - med->second) * sh;
            const double then =
                std::abs(cb.x() - med->first) * sw +
                std::abs(static_cast<double>(cb.y()) - med->second) * sh;
            if (now - then > best_gain_est) {
                best_gain_est = now - then;
                best = b;
            }
        }
        if (!best.valid()) {
            continue;
        }
        ++stats.swaps_attempted;
        swap_cells(a, best);
        // Exact delta over both cells' nets, in sorted order so the float
        // fold (and thus the accept decision) is reproducible.
        std::vector<NetId> nets;
        for (const PinId pid : db.cell(a).pins()) {
            nets.push_back(db.pin(pid).net);
        }
        for (const PinId pid : db.cell(best).pins()) {
            nets.push_back(db.pin(pid).net);
        }
        std::sort(nets.begin(), nets.end());
        nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
        double delta = 0.0;
        for (const NetId n : nets) {
            delta += cache.net_hpwl(n) - cache.cached(n);
        }
        if (delta <= -kMinGainUm) {
            for (const NetId n : nets) {
                cache.refresh(n);
            }
            ++stats.swaps_accepted;
        } else {
            swap_cells(a, best);  // swap back
        }
    }
    stats.hpwl_after_um = cache.total();
    stats.runtime_s = timer.elapsed_s();
    return stats;
}

}  // namespace mrlg
