#include "legalize/exact_local.hpp"

#include <limits>

#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/minmax_placement.hpp"

namespace mrlg {

ExactLocalSolution solve_local_exact(LocalProblem& lp,
                                     const TargetSpec& target,
                                     const EnumerationOptions& opts) {
    ExactLocalSolution sol;
    compute_minmax_placement(lp);
    const auto intervals = build_insertion_intervals(lp, target.w);
    const EnumerationResult enumr =
        enumerate_insertion_points(lp, intervals, target, opts);
    sol.num_points = enumr.points.size();

    double best = std::numeric_limits<double>::max();
    EvalScratch scratch;
    for (const InsertionPoint& p : enumr.points) {
        const Evaluation ev =
            evaluate_insertion_point_exact(lp, p, target, scratch);
        if (ev.feasible && ev.cost_um < best) {
            best = ev.cost_um;
            sol.feasible = true;
            sol.point = p;
            sol.xt = ev.xt;
            sol.cost_um = ev.cost_um;
        }
    }
    return sol;
}

}  // namespace mrlg
