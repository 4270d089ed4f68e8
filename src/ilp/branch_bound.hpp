#pragma once
/// \file branch_bound.hpp
/// Depth-first branch & bound over the integer variables of a Model, with
/// LP-relaxation bounding via the two-phase simplex.

#include "ilp/simplex.hpp"

namespace mrlg::ilp {

enum class MipStatus { kOptimal, kInfeasible, kNodeLimit };

struct MipResult {
    MipStatus status = MipStatus::kInfeasible;
    std::vector<double> x;
    double obj = 0.0;
    std::size_t nodes = 0;
};

/// Solves min cᵀx s.t. the model's constraints with the integrality flags
/// respected. Gives up with kNodeLimit after 100 000 nodes.
MipResult solve_mip(const Model& model);

}  // namespace mrlg::ilp
