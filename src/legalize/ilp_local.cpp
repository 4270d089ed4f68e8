#include "legalize/ilp_local.hpp"

#include <cmath>
#include <limits>
#include <optional>

#include "eval/legality.hpp"
#include "ilp/branch_bound.hpp"
#include "util/assert.hpp"

namespace mrlg {

namespace {

struct BaseRowSolution {
    double cost_sites;      ///< x-displacement cost (locals + target).
    double x_target;
    std::vector<int> gaps;  ///< Chosen gap per combination row.
};

/// Builds and solves the MIP for one base row, or nullopt when infeasible.
std::optional<BaseRowSolution> solve_for_base_row(
    const LocalProblem& lp, const TargetSpec& target, int t,
    std::size_t& nodes) {
    ilp::Model m;
    const int n = lp.num_cells();
    const int ht = static_cast<int>(target.h);

    // Variable bounds for local cells: intersection over spanned rows.
    std::vector<int> xv(static_cast<std::size_t>(n));
    std::vector<int> dv(static_cast<std::size_t>(n));
    double big_m = 1.0;
    for (int i = 0; i < n; ++i) {
        const LpCell& c = lp.cell(i);
        SiteCoord lo = kSiteCoordMin;
        SiteCoord hi = kSiteCoordMax;
        for (SiteCoord j = 0; j < c.h; ++j) {
            const LpRow& row = lp.row(c.k0 + j);
            lo = std::max(lo, row.span.lo);
            hi = std::min(hi, static_cast<SiteCoord>(row.span.hi - c.w));
        }
        // Positions are integer site coordinates (§2); leaving them
        // continuous lets the MIP beat the site-aligned optimum whenever
        // the preferred position is fractional.
        xv[static_cast<std::size_t>(i)] =
            m.add_var(lo, hi, 0.0, true, "x" + std::to_string(i));
        dv[static_cast<std::size_t>(i)] =
            m.add_var(0.0, 1e9, 1.0, false, "d" + std::to_string(i));
        big_m = std::max(big_m, static_cast<double>(hi - lo) +
                                    static_cast<double>(c.w));
    }

    // Target bounds over its combination rows.
    SiteCoord tlo = kSiteCoordMin;
    SiteCoord thi = kSiteCoordMax;
    for (int k = t; k < t + ht; ++k) {
        const LpRow& row = lp.row(k);
        tlo = std::max(tlo, row.span.lo);
        thi = std::min(thi, static_cast<SiteCoord>(row.span.hi - target.w));
    }
    if (tlo > thi) {
        return std::nullopt;
    }
    const int xt = m.add_var(tlo, thi, 0.0, true, "xt");
    const int dt = m.add_var(0.0, 1e9, 1.0, false, "dt");
    big_m = std::max(big_m, static_cast<double>(thi - tlo) +
                                static_cast<double>(target.w));
    big_m *= 4.0;

    // Displacement linearization.
    for (int i = 0; i < n; ++i) {
        const double ref = static_cast<double>(lp.cell(i).x);
        m.add_constraint({{dv[static_cast<std::size_t>(i)], 1.0},
                          {xv[static_cast<std::size_t>(i)], -1.0}},
                         ilp::Sense::kGe, -ref);
        m.add_constraint({{dv[static_cast<std::size_t>(i)], 1.0},
                          {xv[static_cast<std::size_t>(i)], 1.0}},
                         ilp::Sense::kGe, ref);
    }
    m.add_constraint({{dt, 1.0}, {xt, -1.0}}, ilp::Sense::kGe,
                     -target.pref_x);
    m.add_constraint({{dt, 1.0}, {xt, 1.0}}, ilp::Sense::kGe, target.pref_x);

    // Order chains per row.
    for (int k = 0; k < lp.num_rows(); ++k) {
        if (!lp.has_row(k)) {
            continue;
        }
        const std::span<const int> cells = lp.row(k).cells;
        for (std::size_t p = 1; p < cells.size(); ++p) {
            const LpCell& a = lp.cell(cells[p - 1]);
            m.add_constraint(
                {{xv[static_cast<std::size_t>(cells[p])], 1.0},
                 {xv[static_cast<std::size_t>(cells[p - 1])], -1.0}},
                ilp::Sense::kGe, static_cast<double>(a.w));
        }
    }

    // Gap binaries + big-M activation per combination row.
    std::vector<std::vector<int>> row_bvars;
    for (int k = t; k < t + ht; ++k) {
        const std::span<const int> cells = lp.row(k).cells;
        const int ngaps = static_cast<int>(cells.size()) + 1;
        std::vector<int> bvars(static_cast<std::size_t>(ngaps));
        std::vector<ilp::Term> sum;
        for (int g = 0; g < ngaps; ++g) {
            bvars[static_cast<std::size_t>(g)] = m.add_var(
                0.0, 1.0, 0.0, true,
                "b_" + std::to_string(k) + "_" + std::to_string(g));
            sum.push_back({bvars[static_cast<std::size_t>(g)], 1.0});
        }
        m.add_constraint(std::move(sum), ilp::Sense::kEq, 1.0);
        for (int g = 0; g < ngaps; ++g) {
            const int b = bvars[static_cast<std::size_t>(g)];
            if (g > 0) {
                // xt >= x_left + w_left - M(1-b)
                const int li = cells[static_cast<std::size_t>(g - 1)];
                m.add_constraint(
                    {{xt, 1.0},
                     {xv[static_cast<std::size_t>(li)], -1.0},
                     {b, -big_m}},
                    ilp::Sense::kGe,
                    static_cast<double>(lp.cell(li).w) - big_m);
            }
            if (g < ngaps - 1) {
                // x_right >= xt + w_t - M(1-b)
                const int ri = cells[static_cast<std::size_t>(g)];
                m.add_constraint(
                    {{xv[static_cast<std::size_t>(ri)], 1.0},
                     {xt, -1.0},
                     {b, -big_m}},
                    ilp::Sense::kGe,
                    static_cast<double>(target.w) - big_m);
            }
        }
        row_bvars.push_back(std::move(bvars));
    }

    ilp::MipOptions mo;
    const ilp::MipResult r = ilp::solve_mip(m, mo);
    nodes += r.nodes;
    if (r.status != ilp::MipStatus::kOptimal) {
        return std::nullopt;
    }
    BaseRowSolution sol;
    sol.cost_sites = r.obj;
    sol.x_target = r.x[static_cast<std::size_t>(xt)];
    for (const auto& bvars : row_bvars) {
        int chosen = 0;
        double best_b = -1.0;
        for (int g = 0; g < static_cast<int>(bvars.size()); ++g) {
            const double v = r.x[static_cast<std::size_t>(
                bvars[static_cast<std::size_t>(g)])];
            if (v > best_b) {
                best_b = v;
                chosen = g;
            }
        }
        sol.gaps.push_back(chosen);
    }
    return sol;
}

}  // namespace

IlpLocalResult solve_local_ilp(const LocalProblem& lp,
                               const TargetSpec& target,
                               const EnumerationOptions& opts) {
    IlpLocalResult best;
    double best_cost = std::numeric_limits<double>::max();
    const int ht = static_cast<int>(target.h);
    for (int t = 0; t + ht <= lp.num_rows(); ++t) {
        bool rows_ok = true;
        for (int k = t; k < t + ht; ++k) {
            if (!lp.has_row(k)) {
                rows_ok = false;
            }
        }
        if (!rows_ok) {
            continue;
        }
        const SiteCoord y_abs = lp.y0() + t;
        if (opts.check_rail &&
            !rail_compatible(y_abs, target.h, target.rail_phase)) {
            continue;
        }
        const double y_cost =
            std::abs(static_cast<double>(y_abs) - target.pref_y) *
            lp.site_h_um();
        if (y_cost >= best_cost) {
            continue;
        }
        const auto sol = solve_for_base_row(lp, target, t, best.nodes);
        if (!sol) {
            continue;
        }
        const double cost = sol->cost_sites * lp.site_w_um() + y_cost;
        if (cost < best_cost) {
            best_cost = cost;
            best.feasible = true;
            best.cost_um = cost;
            best.y_base = y_abs;
            best.x_target = sol->x_target;
            best.base_row_k = t;
            best.gaps = sol->gaps;
        }
    }
    return best;
}

}  // namespace mrlg
