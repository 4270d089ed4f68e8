#pragma once
/// \file local_region.hpp
/// Shim: bench_suite/ includes this header and names the extracted window
/// `LocalRegion`. The window is one LocalProblem (legalize/local_problem.hpp)
/// that extract_local_region fills; nothing in the library includes this
/// file, and the next change to the benchmark (ROADMAP item 1) deletes it.

#include "legalize/local_problem.hpp"

namespace mrlg {

/// Shim: the extracted window under its former name.
using LocalRegion = LocalProblem;

}  // namespace mrlg
