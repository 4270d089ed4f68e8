#pragma once
/// \file quadratic.hpp
/// Bound-to-bound (B2B) quadratic global placer with iterative density
/// spreading — the substrate standing in for the contest global placer the
/// paper's Table 1 inputs came from (see DESIGN.md substitutions).
///
/// Each iteration rebuilds the B2B net model at the current positions,
/// adds spreading anchors derived from per-bin utilization, and solves the
/// two independent 1-D systems with Jacobi-PCG. The result is written to
/// Cell::gp_x / gp_y (fractional site units): a well-distributed,
/// overlapping, off-site placement — exactly what legalization consumes.

#include "db/database.hpp"

namespace mrlg::gp {

struct QuadraticStats {
    int iterations_run = 0;
    double final_max_util = 0.0;  ///< Max bin utilization at exit.
    double hpwl_um = 0.0;         ///< HPWL of the produced GP.
};

/// Runs `iterations` outer placement/spreading rounds over all movable
/// cells of `db`, using nets for attraction and fixed cells as anchors.
/// Overwrites gp positions.
QuadraticStats quadratic_place(Database& db, int iterations = 12);

}  // namespace mrlg::gp
