#include "ilp/branch_bound.hpp"

#include <cmath>
#include <limits>
#include <vector>

namespace mrlg::ilp {

namespace {

constexpr std::size_t kMaxNodes = 100000;
/// A value within this distance of an integer counts as integral.
constexpr double kIntTol = 1e-6;

struct Node {
    std::vector<double> lb;
    std::vector<double> ub;
};

}  // namespace

MipResult solve_mip(const Model& model) {
    MipResult result;
    const int n = model.num_vars();
    Node root;
    root.lb.resize(static_cast<std::size_t>(n));
    root.ub.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        root.lb[static_cast<std::size_t>(i)] =
            model.vars()[static_cast<std::size_t>(i)].lb;
        root.ub[static_cast<std::size_t>(i)] =
            model.vars()[static_cast<std::size_t>(i)].ub;
    }

    double incumbent = std::numeric_limits<double>::max();
    std::vector<double> best_x;

    std::vector<Node> stack{std::move(root)};
    while (!stack.empty()) {
        if (result.nodes >= kMaxNodes) {
            result.status = best_x.empty() ? MipStatus::kNodeLimit
                                           : MipStatus::kNodeLimit;
            result.x = best_x;
            result.obj = incumbent;
            return result;
        }
        const Node node = std::move(stack.back());
        stack.pop_back();
        ++result.nodes;

        const LpResult lp = solve_lp(model, &node.lb, &node.ub);
        if (lp.status != LpStatus::kOptimal) {
            continue;  // infeasible or pathological node — prune
        }
        if (lp.obj >= incumbent - 1e-9) {
            continue;  // bound prune
        }
        // Find the most fractional integer variable.
        int frac_var = -1;
        double frac_dist = kIntTol;
        for (int i = 0; i < n; ++i) {
            if (!model.vars()[static_cast<std::size_t>(i)].integer) {
                continue;
            }
            const double v = lp.x[static_cast<std::size_t>(i)];
            const double d = std::abs(v - std::round(v));
            if (d > frac_dist) {
                frac_dist = d;
                frac_var = i;
            }
        }
        if (frac_var < 0) {
            // Integral solution.
            incumbent = lp.obj;
            best_x = lp.x;
            continue;
        }
        const double v = lp.x[static_cast<std::size_t>(frac_var)];
        Node down = node;
        down.ub[static_cast<std::size_t>(frac_var)] = std::floor(v);
        Node up = node;
        up.lb[static_cast<std::size_t>(frac_var)] = std::ceil(v);
        // DFS; push the branch nearer the LP value last so it pops first.
        if (v - std::floor(v) < 0.5) {
            stack.push_back(std::move(up));
            stack.push_back(std::move(down));
        } else {
            stack.push_back(std::move(down));
            stack.push_back(std::move(up));
        }
    }

    if (!best_x.empty()) {
        result.status = MipStatus::kOptimal;
        result.x = std::move(best_x);
        result.obj = incumbent;
    }
    return result;
}

}  // namespace mrlg::ilp
