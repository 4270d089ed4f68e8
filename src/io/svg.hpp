#pragma once
/// \file svg.hpp
/// SVG renderings of a placement — the debugging view every placement
/// project grows sooner or later. Rows, blockages and cells are drawn to
/// scale; cells are coloured by row height, and displacement arrows from
/// the global-placement position can be overlaid.

#include <string>

#include "db/database.hpp"

namespace mrlg {

struct SvgOptions {
    bool draw_gp_arrows = false;
    bool label_cells = false;   ///< Cell names (readable only when few).
    std::size_t max_cells = 200000;  ///< Refuse absurd files.
};

/// Writes the current placement to `path` at 4 px per site and 14 px per
/// row. Unplaced movable cells are drawn hollow at their gp position.
/// Returns false when the design exceeds max_cells (nothing is written).
bool write_svg(const Database& db, const std::string& path,
               const SvgOptions& opts = {});

}  // namespace mrlg
