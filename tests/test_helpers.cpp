#include "test_helpers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "check/audit.hpp"
#include "eval/legality.hpp"
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

StarvedDesign ripup_starved_design() {
    StarvedDesign s{empty_design(4, 40), SegmentGrid{}, CellId{}};
    s.grid = SegmentGrid::build(s.db);
    for (int i = 0; i < 8; ++i) {
        add_placed(s.db, s.grid, "r1_" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 1, 5, 1);
        add_placed(s.db, s.grid, "r2_" + std::to_string(i),
                   static_cast<SiteCoord>(i * 5), 2, 5, 1);
    }
    s.stuck = add_unplaced(s.db, "dbl", 18.0, 1.0, 4, 2, RailPhase::kOdd);
    return s;
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

std::pair<SiteCoord, double> brute_force_hinge_min(
    const std::vector<SiteCoord>& a, const std::vector<SiteCoord>& b,
    double pref, SiteCoord lo, SiteCoord hi) {
    SiteCoord best_x = lo;
    double best = std::numeric_limits<double>::max();
    for (SiteCoord x = lo; x <= hi; ++x) {
        const double d = std::abs(static_cast<double>(x) - pref);
        double cost = d;
        for (const SiteCoord av : a) {
            cost += std::max(0, av - x);
        }
        for (const SiteCoord bv : b) {
            cost += std::max(0, x - bv);
        }
        // Ascending x: a full tie keeps the smaller x already held.
        const double best_d = std::abs(static_cast<double>(best_x) - pref);
        if (cost < best - 1e-9 ||
            (std::abs(cost - best) <= 1e-9 && d < best_d - 1e-9)) {
            best = cost;
            best_x = x;
        }
    }
    return {best_x, best};
}

namespace {

/// Post-insertion right neighbour of local cell `ci` on local row `k`:
/// returns the neighbour cell index, or -2 when the neighbour is the
/// target, or -1 when there is none (segment wall).
int right_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                   int k) {
    const int pos = lp.pos_in_row(ci, k - lp.cell(ci).k0);
    const std::span<const int> row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos + 1 == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the right
    }
    if (pos + 1 < static_cast<int>(row_cells.size())) {
        return row_cells[static_cast<std::size_t>(pos + 1)];
    }
    return -1;
}

/// Post-insertion left neighbour; same encoding as right_neighbor.
int left_neighbor(const LocalProblem& lp, const InsertionPoint& p, int ci,
                  int k) {
    const int pos = lp.pos_in_row(ci, k - lp.cell(ci).k0);
    const std::span<const int> row_cells = lp.row(k).cells;
    const bool comb_row =
        k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
    if (comb_row && pos == p.gaps[static_cast<std::size_t>(k - p.k0)]) {
        return -2;  // target sits immediately to the left
    }
    if (pos > 0) {
        return row_cells[static_cast<std::size_t>(pos - 1)];
    }
    return -1;
}

bool is_comb_row(const InsertionPoint& p, int k) {
    return k >= p.k0 && k < p.k0 + static_cast<int>(p.gaps.size());
}

}  // namespace

CriticalPositions reference_critical_positions(const LocalProblem& lp,
                                               const InsertionPoint& point,
                                               SiteCoord target_w) {
    CriticalPositions cp;
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());
    cp.xa.assign(n, kSiteCoordMin);
    cp.xb.assign(n, kSiteCoordMax);

    // Push-left thresholds: every cell right-to-left (descending index is
    // descending x); xa_k = x_k + w_k + max over pushers r of
    // (xa_r - x_r), with the target contributing 0.
    for (int ci = static_cast<int>(n); ci-- > 0;) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMin;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int nb = right_neighbor(lp, point, ci, c.k0 + j);
            if (nb == -2) {
                best = std::max<SiteCoord>(best, 0);
                any = true;
            } else if (nb >= 0 &&
                       cp.xa[static_cast<std::size_t>(nb)] != kSiteCoordMin) {
                best = std::max<SiteCoord>(
                    best, cp.xa[static_cast<std::size_t>(nb)] -
                              lp.cell(nb).x);
                any = true;
            }
        }
        if (any) {
            cp.xa[static_cast<std::size_t>(ci)] = c.x + c.w + best;
        }
    }

    // Push-right thresholds, mirrored: xb_k = x_k + min over pushers l of
    // (xb_l - x_l - w_l), the target contributing -target_w.
    for (int ci = 0; ci < static_cast<int>(n); ++ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord best = kSiteCoordMax;
        bool any = false;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int nb = left_neighbor(lp, point, ci, c.k0 + j);
            if (nb == -2) {
                best = std::min<SiteCoord>(best, -target_w);
                any = true;
            } else if (nb >= 0 &&
                       cp.xb[static_cast<std::size_t>(nb)] != kSiteCoordMax) {
                const LpCell& l = lp.cell(nb);
                best = std::min<SiteCoord>(
                    best,
                    cp.xb[static_cast<std::size_t>(nb)] - l.x - l.w);
                any = true;
            }
        }
        if (any) {
            cp.xb[static_cast<std::size_t>(ci)] = c.x + best;
        }
    }
    return cp;
}

Realization reference_realize_insertion(const LocalProblem& lp,
                                        const InsertionPoint& point,
                                        SiteCoord xt, SiteCoord target_w) {
    Realization r;
    r.xt = xt;
    const std::size_t n = static_cast<std::size_t>(lp.num_cells());

    // Right side: every cell in ascending index (x) order.
    std::vector<SiteCoord>& R = r.new_x;
    R.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        R[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (int ci = 0; ci < static_cast<int>(n); ++ci) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = R[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            if (is_comb_row(point, k) &&
                pos == point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::max<SiteCoord>(x, xt + target_w);
            } else if (pos > 0) {
                const int l =
                    lp.row(k).cells[static_cast<std::size_t>(pos - 1)];
                x = std::max<SiteCoord>(
                    x, R[static_cast<std::size_t>(l)] + lp.cell(l).w);
            }
        }
        R[static_cast<std::size_t>(ci)] = x;
    }

    // Left side: every cell in descending order.
    std::vector<SiteCoord> L(n);
    for (std::size_t i = 0; i < n; ++i) {
        L[i] = lp.cell(static_cast<int>(i)).x;
    }
    for (int ci = static_cast<int>(n); ci-- > 0;) {
        const LpCell& c = lp.cell(ci);
        SiteCoord x = L[static_cast<std::size_t>(ci)];
        for (SiteCoord j = 0; j < c.h; ++j) {
            const int k = c.k0 + j;
            const int pos = lp.pos_in_row(ci, j);
            const std::span<const int> row_cells = lp.row(k).cells;
            if (is_comb_row(point, k) &&
                pos + 1 ==
                    point.gaps[static_cast<std::size_t>(k - point.k0)]) {
                x = std::min<SiteCoord>(x, xt - c.w);
            } else if (pos + 1 < static_cast<int>(row_cells.size())) {
                const int rr = row_cells[static_cast<std::size_t>(pos + 1)];
                x = std::min<SiteCoord>(
                    x, L[static_cast<std::size_t>(rr)] - c.w);
            }
        }
        L[static_cast<std::size_t>(ci)] = x;
    }

    for (std::size_t i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(static_cast<int>(i));
        const bool moved_left = L[i] < c.x;
        const bool moved_right = R[i] > c.x;
        MRLG_ASSERT(!(moved_left && moved_right),
                    "reference: cell pushed in both directions");
        const SiteCoord nx = moved_left ? L[i] : R[i];
        MRLG_ASSERT(nx >= c.xl && nx <= c.xr,
                    "reference: pushed cell left its feasible range");
        r.new_x[i] = nx;
        r.moved_sites += static_cast<double>(std::abs(nx - c.x));
    }
    r.ok = true;
    return r;
}

std::pair<SiteCoord, double> reference_minimize_hinge_cost(
    const HingeSet& hinges, SiteCoord lo, SiteCoord hi) {
    MRLG_ASSERT(lo <= hi, "empty feasible range");
    std::vector<SiteCoord> a = hinges.a;
    std::vector<SiteCoord> b = hinges.b;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    // Suffix sums of a (for sum of a_i > x), prefix sums of b.
    std::vector<double> a_suffix(a.size() + 1, 0.0);
    for (std::size_t i = a.size(); i-- > 0;) {
        a_suffix[i] = a_suffix[i + 1] + static_cast<double>(a[i]);
    }
    std::vector<double> b_prefix(b.size() + 1, 0.0);
    for (std::size_t i = 0; i < b.size(); ++i) {
        b_prefix[i + 1] = b_prefix[i] + static_cast<double>(b[i]);
    }

    auto cost_at = [&](SiteCoord x) -> double {
        // sum over a_i > x of (a_i - x)
        const auto ita = std::upper_bound(a.begin(), a.end(), x);
        const std::size_t ia = static_cast<std::size_t>(ita - a.begin());
        const double ca = a_suffix[ia] - static_cast<double>(a.size() - ia) *
                                             static_cast<double>(x);
        // sum over b_j < x of (x - b_j)
        const auto itb = std::lower_bound(b.begin(), b.end(), x);
        const std::size_t ib = static_cast<std::size_t>(itb - b.begin());
        const double cb =
            static_cast<double>(ib) * static_cast<double>(x) - b_prefix[ib];
        return ca + cb + target_x_distance_sites(x, hinges.pref);
    };

    // Candidate positions: every breakpoint clamped into [lo, hi].
    std::vector<SiteCoord> cand{lo, hi};
    auto push_clamped = [&](double v) {
        const double c = std::clamp(v, static_cast<double>(lo),
                                    static_cast<double>(hi));
        cand.push_back(static_cast<SiteCoord>(std::floor(c)));
        cand.push_back(static_cast<SiteCoord>(std::ceil(c)));
    };
    for (const SiteCoord v : a) {
        push_clamped(static_cast<double>(v));
    }
    for (const SiteCoord v : b) {
        push_clamped(static_cast<double>(v));
    }
    push_clamped(hinges.pref);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    SiteCoord best_x = lo;
    double best_cost = std::numeric_limits<double>::max();
    for (const SiteCoord x : cand) {
        if (x < lo || x > hi) {
            continue;
        }
        const double c = cost_at(x);
        const double d_pref = target_x_distance_sites(x, hinges.pref);
        const double best_d_pref =
            target_x_distance_sites(best_x, hinges.pref);
        if (c < best_cost - 1e-9 ||
            (std::abs(c - best_cost) <= 1e-9 &&
             (d_pref < best_d_pref - 1e-9 ||
              (std::abs(d_pref - best_d_pref) <= 1e-9 && x < best_x)))) {
            best_cost = c;
            best_x = x;
        }
    }
    return {best_x, best_cost};
}

namespace {

/// Nearest feasible x to px for a (w × h) footprint with bottom row y, or
/// nullopt: merges the blocked spans of all covered rows and scans every
/// free gap.
std::optional<SiteCoord> whole_row_nearest_x(const Database& db,
                                             const SegmentGrid& grid,
                                             SiteCoord y, double px,
                                             SiteCoord w, SiteCoord h,
                                             int region) {
    // Usable x range: intersection of covered rows' extents.
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + h; ++r) {
        const Row& row = db.floorplan().row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi, static_cast<SiteCoord>(row.x + row.num_sites));
    }
    if (x_hi - x_lo < w) {
        return std::nullopt;
    }

    // Blocked spans: segment gaps (blockages) + placed cells.
    std::vector<Span> blocked;
    for (SiteCoord r = y; r < y + h; ++r) {
        SiteCoord cursor = x_lo;
        for (const SegmentId sid : grid.row_segments(r)) {
            const Segment& seg = grid.segment(sid);
            const Span s = intersect(seg.span, Span{x_lo, x_hi});
            if (s.empty()) {
                continue;
            }
            if (seg.region != region) {
                blocked.push_back(s);  // other regions are hard walls
                continue;
            }
            if (s.lo > cursor) {
                blocked.push_back(Span{cursor, s.lo});
            }
            cursor = std::max(cursor, s.hi);
            const auto [first, last] =
                grid.cells_overlapping(seg, Span{x_lo, x_hi});
            for (std::size_t i = first; i < last; ++i) {
                blocked.push_back(Span{seg.cells[i].x, seg.cells[i].x_hi()});
            }
        }
        if (cursor < x_hi) {
            blocked.push_back(Span{cursor, x_hi});
        }
    }
    std::sort(blocked.begin(), blocked.end(),
              [](const Span& a, const Span& b) { return a.lo < b.lo; });

    // Scan free gaps between merged blocked spans.
    std::optional<SiteCoord> best;
    double best_d = std::numeric_limits<double>::max();
    auto consider_gap = [&](SiteCoord lo, SiteCoord hi) {
        if (hi - lo < w) {
            return;
        }
        const double xc = std::clamp(px, static_cast<double>(lo),
                                     static_cast<double>(hi - w));
        const SiteCoord x = std::clamp<SiteCoord>(
            static_cast<SiteCoord>(std::lround(xc)), lo,
            static_cast<SiteCoord>(hi - w));
        const double d = std::abs(static_cast<double>(x) - px);
        if (d < best_d) {
            best_d = d;
            best = x;
        }
    };
    SiteCoord cursor = x_lo;
    for (const Span& b : blocked) {
        if (b.lo > cursor) {
            consider_gap(cursor, b.lo);
        }
        cursor = std::max(cursor, b.hi);
    }
    if (cursor < x_hi) {
        consider_gap(cursor, x_hi);
    }
    return best;
}

}  // namespace

std::optional<Point> reference_find_nearest_free_position(
    const Database& db, const SegmentGrid& grid, CellId cell_id, double px,
    double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const double sw = fp.site_w_um();
    const double sh = fp.site_h_um();
    const SiteCoord h = cell.height();
    const SiteCoord max_y = std::max<SiteCoord>(0, fp.num_rows() - h);

    std::vector<SiteCoord> rows;
    for (SiteCoord y = 0; y <= max_y; ++y) {
        if (!check_rail || rail_compatible(y, h, cell.rail_phase())) {
            rows.push_back(y);
        }
    }
    std::sort(rows.begin(), rows.end(), [&](SiteCoord a, SiteCoord b) {
        const double da = std::abs(static_cast<double>(a) - py);
        const double db_ = std::abs(static_cast<double>(b) - py);
        return da != db_ ? da < db_ : a < b;
    });

    double best_cost = std::numeric_limits<double>::max();
    std::optional<Point> best;
    for (const SiteCoord y : rows) {
        const double y_cost = std::abs(static_cast<double>(y) - py) * sh;
        if (y_cost >= best_cost) {
            break;  // rows sorted by |dy|; nothing further can win
        }
        const auto x = whole_row_nearest_x(db, grid, y, px, cell.width(), h,
                                           cell.region());
        if (!x) {
            continue;
        }
        const double cost =
            y_cost + std::abs(static_cast<double>(*x) - px) * sw;
        if (cost < best_cost) {
            best_cost = cost;
            best = Point{*x, y};
        }
    }
    return best;
}

void reference_enumerate_insertion_points_scanline(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts,
    EnumerationResult& result) {
    using EvType = EnumerationScratch::EvType;
    using Event = EnumerationScratch::Event;
    result.points.clear();
    result.truncated = false;
    const int H = lp.num_rows();
    const int ht = static_cast<int>(target.h);
    if (H < ht) {
        return;
    }
    std::vector<int> multi_cells;
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (lp.cell(i).h > 1) {
            multi_cells.push_back(i);
        }
    }
    const auto base_row_ok = [&](int t) {
        for (int k = t; k < t + ht; ++k) {
            if (!lp.has_row(k)) {
                return false;
            }
        }
        return !opts.check_rail ||
               rail_compatible(lp.y0() + t, target.h, target.rail_phase);
    };

    const int band = 2 * ht - 1;
    std::vector<std::vector<int>> queues(static_cast<std::size_t>(H * band));
    const auto Q = [&](int a, int b) -> std::vector<int>& {
        return queues[static_cast<std::size_t>(a * band + (b - a) + ht - 1)];
    };

    std::vector<Event> events;
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const InsertionInterval& iv = intervals[i];
        events.push_back(
            Event{iv.lo, EvType::kLeft, static_cast<int>(i), iv.k});
        events.push_back(
            Event{iv.hi, EvType::kRight, static_cast<int>(i), iv.k});
    }
    for (const int ci : multi_cells) {
        const LpCell& c = lp.cell(ci);
        for (SiteCoord j = 0; j < c.h; ++j) {
            events.push_back(Event{static_cast<SiteCoord>(c.xl + c.w),
                                   EvType::kClear, ci, c.k0 + j});
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                  if (a.x != b.x) {
                      return a.x < b.x;
                  }
                  if (a.type != b.type) {
                      return static_cast<int>(a.type) <
                             static_cast<int>(b.type);
                  }
                  return a.payload < b.payload;
              });

    std::vector<int> combo_gaps(static_cast<std::size_t>(ht));
    auto emit_products = [&](int a, const InsertionInterval& iv, int t,
                             auto&& self, int k, SiteCoord lo,
                             SiteCoord hi) -> void {
        if (result.truncated) {
            return;
        }
        if (k == t + ht) {
            InsertionPoint p;
            p.k0 = t;
            p.gaps.assign(combo_gaps);
            p.lo = lo;
            p.hi = hi;
            if (lo <= hi && insertion_point_consistent(lp, p)) {
                if (result.points.size() >= opts.max_points) {
                    result.truncated = true;
                    return;
                }
                result.points.push_back(std::move(p));
            }
            return;
        }
        if (k == a) {
            combo_gaps[static_cast<std::size_t>(k - t)] = iv.gap;
            self(a, iv, t, self, k + 1, lo, hi);
            return;
        }
        for (const int other_idx : Q(a, k)) {
            const InsertionInterval& ov =
                intervals[static_cast<std::size_t>(other_idx)];
            combo_gaps[static_cast<std::size_t>(k - t)] = ov.gap;
            self(a, iv, t, self, k + 1, std::max(lo, ov.lo),
                 std::min(hi, ov.hi));
            if (result.truncated) {
                return;
            }
        }
    };

    for (const Event& ev : events) {
        if (result.truncated) {
            break;
        }
        switch (ev.type) {
            case EvType::kClear: {
                const LpCell& c = lp.cell(ev.payload);
                for (SiteCoord j = 0; j < c.h; ++j) {
                    const int r = c.k0 + j;
                    if (r != ev.row && std::abs(r - ev.row) < ht) {
                        Q(ev.row, r).clear();
                    }
                }
                break;
            }
            case EvType::kLeft: {
                const InsertionInterval& iv =
                    intervals[static_cast<std::size_t>(ev.payload)];
                const int a = iv.k;
                for (int t = std::max(0, a - ht + 1);
                     t <= std::min(H - ht, a); ++t) {
                    if (base_row_ok(t)) {
                        emit_products(a, iv, t, emit_products, t, iv.lo,
                                      iv.hi);
                    }
                }
                for (int r = std::max(0, a - ht + 1);
                     r <= std::min(H - 1, a + ht - 1); ++r) {
                    if (r != a) {
                        Q(r, a).push_back(ev.payload);
                    }
                }
                break;
            }
            case EvType::kRight: {
                const int a = ev.row;
                for (int r = std::max(0, a - ht + 1);
                     r <= std::min(H - 1, a + ht - 1); ++r) {
                    if (r != a) {
                        std::vector<int>& q = Q(r, a);
                        q.erase(std::remove(q.begin(), q.end(), ev.payload),
                                q.end());
                    }
                }
                break;
            }
        }
    }
}

}  // namespace mrlg::test
