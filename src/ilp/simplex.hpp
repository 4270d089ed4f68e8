#pragma once
/// \file simplex.hpp
/// Dense two-phase primal simplex for the LP relaxation of a Model.
/// Designed for the small local-legalization ILPs (tens of variables);
/// uses Bland's rule to guarantee termination.

#include <vector>

#include "ilp/model.hpp"

namespace mrlg::ilp {

enum class LpStatus { kOptimal, kInfeasible, kUnbounded, kIterLimit };

struct LpResult {
    LpStatus status = LpStatus::kInfeasible;
    std::vector<double> x;  ///< Values of the model variables.
    double obj = 0.0;
};

/// Solves the LP relaxation (integrality flags ignored). Variable bound
/// overrides (for branch & bound) can be supplied; entries with
/// lb > ub mark an empty domain and yield kInfeasible immediately.
LpResult solve_lp(const Model& model,
                  const std::vector<double>* lb_override = nullptr,
                  const std::vector<double>* ub_override = nullptr);

}  // namespace mrlg::ilp
