#include "qa/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "check/audit.hpp"
#include "check/audit_local.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/exact_local.hpp"
#include "legalize/greedy.hpp"
#include "legalize/ilp_local.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/realization.hpp"
#include "qa/snapshot.hpp"
#include "db/write_cap.hpp"
#include "util/rng.hpp"

namespace mrlg::qa {

namespace {

/// Problem-size gates of diff_local_solvers: the ILP and the naive
/// exponential enumeration are only consulted up to these bounds.
constexpr int kMaxIlpCells = 8;
constexpr std::size_t kMaxIlpPoints = 64;
constexpr int kMaxNaiveCells = 10;
/// Tolerance of diff_local_solvers' cost comparisons (um).
constexpr double kEpsUm = 1e-6;

/// Fence region of one site, straight off the floorplan (fences of
/// distinct regions are disjoint, so the first hit is the answer).
int site_region(const Floorplan& fp, SiteCoord x, SiteCoord y) {
    const Rect site{x, y, 1, 1};
    for (const Floorplan::Fence& f : fp.fences()) {
        if (f.rect.overlaps(site)) {
            return f.region;
        }
    }
    return 0;
}

bool site_blocked(const Floorplan& fp, SiteCoord x, SiteCoord y) {
    const Rect site{x, y, 1, 1};
    for (const Rect& b : fp.blockages()) {
        if (b.overlaps(site)) {
            return true;
        }
    }
    return false;
}

/// Every site of the footprint on a real row, unblocked, in the cell's
/// fence region — the naive restatement of constraints 2+3 (+ fences).
bool naive_footprint_ok(const Floorplan& fp, const Cell& cell) {
    for (SiteCoord y = cell.y(); y < cell.y() + cell.height(); ++y) {
        if (!fp.has_row(y)) {
            return false;
        }
        const Span row_span = fp.row(y).x_span();
        for (SiteCoord x = cell.x(); x < cell.x() + cell.width(); ++x) {
            if (!row_span.contains(x) || site_blocked(fp, x, y) ||
                site_region(fp, x, y) != cell.region()) {
                return false;
            }
        }
    }
    return true;
}

std::string cell_name(const Database& db, CellId id) {
    return db.cell(id).name();
}

std::string pair_names(const Database& db,
                       const std::pair<CellId, CellId>& p) {
    return '(' + cell_name(db, p.first) + "," + cell_name(db, p.second) +
           ")";
}

/// Exhaustive serial insertion-point scan with MLL's tie-break (first
/// strictly lower cost wins, index order) — the reference the
/// whole-problem solvers are compared against.
struct ScanResult {
    bool feasible = false;
    std::size_t index = 0;
    Evaluation eval;
};

ScanResult scan_points(const LocalProblem& lp, const EnumerationResult& er,
                       const TargetSpec& target, bool exact) {
    ScanResult out;
    for (std::size_t i = 0; i < er.points.size(); ++i) {
        const Evaluation ev =
            exact ? evaluate_insertion_point_exact(lp, er.points[i], target)
                  : evaluate_insertion_point_approx(lp, er.points[i],
                                                    target);
        if (ev.feasible &&
            (!out.feasible || ev.cost_um < out.eval.cost_um)) {
            out.feasible = true;
            out.index = i;
            out.eval = ev;
        }
    }
    return out;
}

/// The bound-pruned scan mll_plan runs: every point scored or excluded,
/// and audit_point_scan's exhaustive check (the bound never above a
/// point's cost; the same winner index, xt and bit-equal cost).
void diff_pruned_scan(const LocalProblem& lp, const EnumerationResult& er,
                      const TargetSpec& target, bool exact,
                      std::ostringstream& os) {
    const char* name = exact ? "exact" : "approx";
    EvalScratch scratch;
    const PointScan pruned =
        scan_insertion_points(lp, er.points, target, exact, scratch);
    if (pruned.scored + pruned.skipped != er.points.size()) {
        os << name << " pruned scan accounted for "
           << pruned.scored + pruned.skipped << " of " << er.points.size()
           << " points; ";
    }
    const AuditReport audit = audit_point_scan(
        lp, er.points, target, point_evaluator(exact), pruned);
    if (!audit.ok()) {
        os << name << " " << audit.to_string() << "; ";
    }
}

/// Realized displacement cost (microns) of placing the target at
/// (xt, y0+k0) inside `point`: local pushes + target x and y moves.
double realized_cost_um(const LocalProblem& lp, const InsertionPoint& point,
                        SiteCoord xt, const TargetSpec& target,
                        const Realization& real) {
    const double y_abs = static_cast<double>(lp.y0() + point.k0);
    return real.moved_sites * lp.site_w_um() +
           std::abs(static_cast<double>(xt) - target.pref_x) *
               lp.site_w_um() +
           std::abs(y_abs - target.pref_y) * lp.site_h_um();
}

bool same_point_set(std::vector<InsertionPoint> a,
                    std::vector<InsertionPoint> b) {
    const auto key = [](const InsertionPoint& p) {
        return std::tuple<int, std::vector<int>, SiteCoord, SiteCoord>(
            p.k0, std::vector<int>(p.gaps.begin(), p.gaps.end()), p.lo,
            p.hi);
    };
    const auto less = [&](const InsertionPoint& x, const InsertionPoint& y) {
        return key(x) < key(y);
    };
    std::sort(a.begin(), a.end(), less);
    std::sort(b.begin(), b.end(), less);
    return a == b;
}

}  // namespace

std::vector<std::pair<CellId, CellId>> canonical_pairs(
    std::vector<std::pair<CellId, CellId>> pairs) {
    for (auto& p : pairs) {
        if (p.second < p.first) {
            std::swap(p.first, p.second);
        }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    return pairs;
}

NaiveLegality naive_check_legality(const Database& db,
                                   const LegalityOptions& opts) {
    NaiveLegality out;
    const Floorplan& fp = db.floorplan();
    std::vector<CellId> placed;
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const Cell& cell = db.cells()[i];
        const CellId id{static_cast<CellId::underlying>(i)};
        if (cell.fixed()) {
            continue;
        }
        if (!cell.placed()) {
            if (opts.require_all_placed) {
                ++out.num_unplaced;
            }
            continue;
        }
        placed.push_back(id);
        if (!naive_footprint_ok(fp, cell)) {
            ++out.num_out_of_rows;
        }
        if (opts.check_rail_alignment &&
            !rail_compatible(cell.y(), cell.height(), cell.rail_phase())) {
            ++out.num_rail_violations;
        }
    }
    for (std::size_t i = 0; i < placed.size(); ++i) {
        const Rect ri = db.cell(placed[i]).rect();
        for (std::size_t j = i + 1; j < placed.size(); ++j) {
            if (ri.overlaps(db.cell(placed[j]).rect())) {
                out.overlap_pairs.emplace_back(placed[i], placed[j]);
            }
        }
    }
    out.overlap_pairs = canonical_pairs(std::move(out.overlap_pairs));
    out.legal = out.overlap_pairs.empty() && out.num_out_of_rows == 0 &&
                out.num_rail_violations == 0 && out.num_unplaced == 0;
    return out;
}

std::string diff_legality(const Database& db, const SegmentGrid& grid,
                          const LegalityOptions& opts) {
    LegalityOptions sweep_opts = opts;
    sweep_opts.collect_overlap_pairs = true;
    const LegalityReport rep = check_legality(db, grid, sweep_opts);
    const NaiveLegality ref = naive_check_legality(db, opts);

    std::ostringstream os;
    if (rep.legal != ref.legal) {
        os << "verdict mismatch: sweep says "
           << (rep.legal ? "legal" : "illegal") << ", naive says "
           << (ref.legal ? "legal" : "illegal") << "; ";
    }
    const auto sweep_pairs = canonical_pairs(rep.overlap_pairs);
    if (sweep_pairs != ref.overlap_pairs) {
        os << "overlap pair sets differ (sweep " << sweep_pairs.size()
           << ", naive " << ref.overlap_pairs.size() << "):";
        std::vector<std::pair<CellId, CellId>> only_sweep;
        std::set_difference(sweep_pairs.begin(), sweep_pairs.end(),
                            ref.overlap_pairs.begin(),
                            ref.overlap_pairs.end(),
                            std::back_inserter(only_sweep));
        std::vector<std::pair<CellId, CellId>> only_naive;
        std::set_difference(ref.overlap_pairs.begin(),
                            ref.overlap_pairs.end(), sweep_pairs.begin(),
                            sweep_pairs.end(),
                            std::back_inserter(only_naive));
        constexpr std::size_t kMax = 4;
        for (std::size_t i = 0; i < only_sweep.size() && i < kMax; ++i) {
            os << " sweep-only" << pair_names(db, only_sweep[i]);
        }
        for (std::size_t i = 0; i < only_naive.size() && i < kMax; ++i) {
            os << " naive-only" << pair_names(db, only_naive[i]);
        }
        os << "; ";
    }
    if (rep.num_out_of_rows != ref.num_out_of_rows) {
        os << "out-of-rows " << rep.num_out_of_rows << " vs naive "
           << ref.num_out_of_rows << "; ";
    }
    if (rep.num_rail_violations != ref.num_rail_violations) {
        os << "rail " << rep.num_rail_violations << " vs naive "
           << ref.num_rail_violations << "; ";
    }
    if (rep.num_unplaced != ref.num_unplaced) {
        os << "unplaced " << rep.num_unplaced << " vs naive "
           << ref.num_unplaced << "; ";
    }
    return os.str();
}

std::string diff_local_solvers(const Database& db, const SegmentGrid& grid,
                               CellId target, double pref_x, double pref_y,
                               const Rect& window,
                               const LocalDiffOptions& opts) {
    const Cell& cell = db.cell(target);
    TargetSpec t;
    t.id = target;
    t.w = cell.width();
    t.h = cell.height();
    t.pref_x = pref_x;
    t.pref_y = pref_y;
    t.rail_phase = cell.rail_phase();

    LocalProblem lp = extract_local_region(db, grid, window, cell.region());
    if (lp.num_rows() == 0) {
        return {};
    }
    LocalProblem lp_for_exact = lp;  // solve_local_exact mutates its copy
    compute_minmax_placement(lp);
    const std::vector<InsertionInterval> intervals =
        build_insertion_intervals(lp, t.w);
    EnumerationOptions eopts;
    eopts.check_rail = opts.check_rail;
    const EnumerationResult enumr =
        enumerate_insertion_points(lp, intervals, t, eopts);
    if (enumr.truncated) {
        return {};  // capped enumeration: winners are not comparable
    }

    std::ostringstream os;

    // Enumeration vs the exponential reference (small problems only).
    if (lp.num_cells() <= kMaxNaiveCells) {
        const EnumerationResult naive =
            naive_enumerate_insertion_points(lp, intervals, t, eopts);
        if (!naive.truncated &&
            !same_point_set(enumr.points, naive.points)) {
            os << "enumeration mismatch: scanline " << enumr.points.size()
               << " points, naive " << naive.points.size() << "; ";
        }
    }
    for (const InsertionPoint& p : enumr.points) {
        if (!insertion_point_consistent(lp, p)) {
            os << "enumerated point (k0=" << p.k0
               << ") straddles a multi-row cell; ";
            break;
        }
    }

    const ScanResult approx = scan_points(lp, enumr, t, /*exact=*/false);
    const ScanResult exact = scan_points(lp, enumr, t, /*exact=*/true);
    diff_pruned_scan(lp, enumr, t, /*exact=*/false, os);
    diff_pruned_scan(lp, enumr, t, /*exact=*/true, os);
    if (approx.feasible != exact.feasible) {
        os << "feasibility mismatch: approx "
           << (approx.feasible ? "yes" : "no") << ", exact "
           << (exact.feasible ? "yes" : "no") << "; ";
        return os.str();
    }

    const ExactLocalSolution sol = solve_local_exact(lp_for_exact, t, eopts);
    if (sol.feasible != exact.feasible) {
        os << "solve_local_exact feasibility "
           << (sol.feasible ? "yes" : "no") << " vs scan "
           << (exact.feasible ? "yes" : "no") << "; ";
        return os.str();
    }

    if (exact.feasible) {
        // Identical winner under the deterministic tie-break.
        const InsertionPoint& win = enumr.points[exact.index];
        if (!(win == sol.point) || exact.eval.xt != sol.xt ||
            std::abs(exact.eval.cost_um - sol.cost_um) > kEpsUm) {
            os << "exact-scan winner (k0=" << win.k0
               << ", xt=" << exact.eval.xt << ", cost=" << exact.eval.cost_um
               << ") != solve_local_exact (k0=" << sol.point.k0
               << ", xt=" << sol.xt << ", cost=" << sol.cost_um << "); ";
        }

        // Estimates vs realized displacement.
        const Realization real_exact =
            realize_insertion(lp, win, exact.eval.xt, t.w);
        if (!real_exact.ok) {
            os << "realization failed for the exact winner; ";
        } else {
            const double rc =
                realized_cost_um(lp, win, exact.eval.xt, t, real_exact);
            if (std::abs(rc - exact.eval.cost_um) > kEpsUm) {
                os << "exact est " << exact.eval.cost_um
                   << " != realized " << rc << "; ";
            }
        }
        const InsertionPoint& awin = enumr.points[approx.index];
        const Realization real_approx =
            realize_insertion(lp, awin, approx.eval.xt, t.w);
        if (!real_approx.ok) {
            os << "realization failed for the approx winner; ";
        } else {
            const double rc =
                realized_cost_um(lp, awin, approx.eval.xt, t, real_approx);
            if (approx.eval.cost_um > rc + kEpsUm) {
                os << "approx est " << approx.eval.cost_um
                   << " exceeds realized " << rc
                   << " (the neighbour approximation must be a lower "
                      "bound); ";
            }
            if (exact.eval.cost_um > rc + kEpsUm) {
                os << "exact optimum " << exact.eval.cost_um
                   << " exceeds approx realized " << rc << "; ";
            }
        }
    }

    if (opts.run_ilp && lp.num_cells() <= kMaxIlpCells &&
        enumr.points.size() <= kMaxIlpPoints) {
        const IlpLocalResult mip = solve_local_ilp(lp, t, eopts);
        if (mip.feasible != exact.feasible) {
            os << "ILP feasibility " << (mip.feasible ? "yes" : "no")
               << " vs enumeration " << (exact.feasible ? "yes" : "no")
               << "; ";
        } else if (mip.feasible &&
                   std::abs(mip.cost_um - exact.eval.cost_um) > kEpsUm) {
            os << "ILP cost " << mip.cost_um << " != exact optimum "
               << exact.eval.cost_um << "; ";
        }
    }
    return os.str();
}

std::string diff_mll_roundtrip(Database& db, SegmentGrid& grid,
                               CellId target, double pref_x, double pref_y,
                               const MllOptions& opts) {
    GridWriteScope grid_write;
    const PlacementSnapshot before = capture_snapshot(db, grid);
    const MllPlan r = mll_place(db, grid, target, pref_x, pref_y, opts);
    std::ostringstream os;
    if (!r.success()) {
        const std::string diff =
            describe_snapshot_diff(before, capture_snapshot(db, grid), db);
        if (!diff.empty()) {
            os << "failed mll_place modified state: " << diff << "; ";
        }
        return os.str();
    }

    const AuditReport grid_audit =
        audit_segment_grid(db, grid, AuditLevel::kCheap, false);
    if (!grid_audit.ok()) {
        os << "grid audit after commit: " << grid_audit.to_string() << "; ";
    }
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    lopts.check_rail_alignment = opts.check_rail;
    const std::string leg = diff_legality(db, grid, lopts);
    if (!leg.empty()) {
        os << "legality diff after commit: " << leg;
    } else {
        const LegalityReport rep = check_legality(db, grid, lopts);
        if (!rep.legal) {
            os << "committed state illegal: "
               << (rep.messages.empty() ? "?" : rep.messages[0]) << "; ";
        }
    }
    if (opts.exact_evaluation) {
        if (std::abs(r.est_cost_um - r.real_cost_um) > 1e-6) {
            os << "exact est_cost " << r.est_cost_um << " != real_cost "
               << r.real_cost_um << "; ";
        }
    } else if (r.est_cost_um > r.real_cost_um + 1e-6) {
        os << "approx est_cost " << r.est_cost_um << " exceeds real_cost "
           << r.real_cost_um << "; ";
    }

    mll_undo(db, grid, target, r);
    const std::string diff =
        describe_snapshot_diff(before, capture_snapshot(db, grid), db);
    if (!diff.empty()) {
        os << "mll_undo did not restore state: " << diff << "; ";
    }
    return os.str();
}

std::string diff_ripup_rollback(Database& db, SegmentGrid& grid,
                                CellId target, double pref_x, double pref_y,
                                const RipupOptions& opts) {
    GridWriteScope grid_write;
    const PlacementSnapshot before = capture_snapshot(db, grid);
    const RipupResult r = ripup_place(db, grid, target, pref_x, pref_y, opts);
    std::ostringstream os;
    if (!r.success) {
        const std::string diff =
            describe_snapshot_diff(before, capture_snapshot(db, grid), db);
        if (!diff.empty()) {
            os << "failed rip-up left residue: " << diff << "; ";
        }
        return os.str();
    }
    if (r.evicted > opts.max_evictions) {
        os << "rip-up evicted " << r.evicted << " > cap "
           << opts.max_evictions << "; ";
    }
    const AuditReport grid_audit =
        audit_segment_grid(db, grid, AuditLevel::kCheap, false);
    if (!grid_audit.ok()) {
        os << "grid audit after rip-up: " << grid_audit.to_string() << "; ";
    }
    LegalityOptions lopts;
    lopts.require_all_placed = false;
    lopts.check_rail_alignment = opts.mll.check_rail;
    const std::string leg = diff_legality(db, grid, lopts);
    if (!leg.empty()) {
        os << "legality diff after rip-up: " << leg;
    } else {
        const LegalityReport rep = check_legality(db, grid, lopts);
        if (!rep.legal) {
            os << "rip-up committed an illegal state: "
               << (rep.messages.empty() ? "?" : rep.messages[0]) << "; ";
        }
    }
    return os.str();
}

LegalizerStats reference_legalize(Database& db, SegmentGrid& grid,
                                  const LegalizerOptions& opts) {
    GridWriteScope grid_write;
    LegalizerStats stats;
    std::vector<CellId> queue;
    for (const CellId c : db.movable_cells()) {
        ++stats.num_cells;
        if (db.cell(c).placed() && opts.unplace_first) {
            grid.remove(db, c);
        }
        if (!db.cell(c).placed()) {
            queue.push_back(c);
        }
    }
    // Multi-row first: taller cells first, input order on ties.
    if (opts.order == LegalizerOptions::Order::kMultiRowFirst) {
        std::stable_sort(queue.begin(), queue.end(), [&](CellId a, CellId b) {
            return db.cell(a).height() > db.cell(b).height();
        });
    }

    const MllOptions& mopts = opts.mll;
    RipupOptions ropts;
    ropts.mll = mopts;
    MllScratch scratch;
    Rng rng(opts.seed);
    for (int round = 1; !queue.empty() && round <= opts.max_rounds;
         ++round) {
        stats.rounds = round;
        const SiteCoord range_x = mopts.rx * (round - 1);
        const SiteCoord range_y = mopts.ry * (round - 1);
        std::vector<CellId> failed;
        for (const CellId c : queue) {
            const Cell& cell = db.cell(c);
            double px = cell.gp_x();
            double py = cell.gp_y();
            if (round > 1) {
                px += static_cast<double>(rng.uniform(-range_x, range_x));
                py += static_cast<double>(rng.uniform(-range_y, range_y));
            }
            const Point p =
                nearest_aligned_position(db, c, px, py, mopts.check_rail);
            if ((!mopts.check_rail ||
                 rail_compatible(p.y, cell.height(), cell.rail_phase())) &&
                grid.placeable(Rect{p.x, p.y, cell.width(), cell.height()},
                               CellId{}, cell.region())) {
                grid.place(db, c, p.x, p.y);
                ++stats.direct_placements;
                continue;
            }
            const MllPlan r = mll_place(db, grid, c, px, py, mopts, &scratch);
            stats.mll_points_evaluated += r.num_points;
            if (r.success()) {
                ++stats.mll_successes;
                continue;
            }
            ++stats.mll_failures;
            const std::optional<Point> slot =
                round >= opts.free_slot_fallback_round
                    ? find_nearest_free_position(db, grid, c, cell.gp_x(),
                                                 cell.gp_y(), mopts.check_rail)
                    : std::nullopt;
            if (slot) {
                grid.place(db, c, slot->x, slot->y);
                ++stats.fallback_placements;
            } else if (opts.enable_ripup &&
                       round >= opts.free_slot_fallback_round + 2 &&
                       ripup_place(db, grid, c, cell.gp_x(), cell.gp_y(),
                                   ropts, &scratch)
                           .success) {
                ++stats.ripup_placements;
            } else {
                failed.push_back(c);
            }
        }
        queue = std::move(failed);
    }
    stats.unplaced = queue.size();
    stats.success = queue.empty();
    return stats;
}

std::string diff_legalizer(const Database& db, const SegmentGrid& grid,
                           const LegalizerOptions& opts) {
    Database ref_db = db;
    SegmentGrid ref_grid = grid;
    const LegalizerStats ref = reference_legalize(ref_db, ref_grid, opts);
    Database got_db = db;
    SegmentGrid got_grid = grid;
    const LegalizerStats got = legalize_placement(got_db, got_grid, opts);
    std::ostringstream os;
    const auto field = [&](const char* name, auto a, auto b) {
        if (a != b) {
            os << name << " " << a << " != reference " << b << "; ";
        }
    };
    field("success", got.success, ref.success);
    field("num_cells", got.num_cells, ref.num_cells);
    field("direct_placements", got.direct_placements, ref.direct_placements);
    field("mll_successes", got.mll_successes, ref.mll_successes);
    field("mll_failures", got.mll_failures, ref.mll_failures);
    field("fallback_placements", got.fallback_placements,
          ref.fallback_placements);
    field("ripup_placements", got.ripup_placements, ref.ripup_placements);
    field("unplaced", got.unplaced, ref.unplaced);
    field("mll_points_evaluated", got.mll_points_evaluated,
          ref.mll_points_evaluated);
    field("rounds", got.rounds, ref.rounds);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < db.num_cells(); ++i) {
        const Cell& a = got_db.cells()[i];
        const Cell& b = ref_db.cells()[i];
        if (a.placed() != b.placed() || (a.placed() && a.pos() != b.pos())) {
            if (differing++ == 0) {
                os << "cell " << a.name() << " at (" << a.x() << "," << a.y()
                   << ") placed=" << a.placed() << " != reference ("
                   << b.x() << "," << b.y() << ") placed=" << b.placed()
                   << "; ";
            }
        }
    }
    if (differing > 1) {
        os << differing << " cells differ; ";
    }
    return os.str();
}

}  // namespace mrlg::qa
