#pragma once
/// \file bookshelf.hpp
/// Reader/writer for the academic Bookshelf placement format
/// (.aux / .nodes / .nets / .pl / .scl), the lingua franca of ISPD
/// placement benchmarks. Designs round-trip: write(read(x)) == x up to
/// formatting.
///
/// Mapping to mrlg's site-unit model:
///  * .scl rows must share one height; that height becomes Site_h, and the
///    row's Sitewidth becomes Site_w. Cell heights must be multiples of
///    the row height (height in rows = bookshelf height / row height).
///  * Node widths are in site widths (Sitespacing must equal Sitewidth).
///  * .pl positions are in bookshelf units; fractional positions are kept
///    as global-placement input, movable nodes also seed gp_x/gp_y.
///  * Terminals become fixed cells (frozen to blockages by the caller).
///  * Bookshelf pin offsets are measured from the node centre; mrlg stores
///    lower-left offsets.

#include <string>

#include "db/database.hpp"
#include "io/parse.hpp"

namespace mrlg {

struct BookshelfReadResult {
    Database db;
    std::string design_name;
};

/// Parses the design referenced by an .aux file. Throws ParseError on
/// malformed input.
BookshelfReadResult read_bookshelf(const std::string& aux_path);

/// Writes `db` as <dir>/<design>.aux (+ .nodes/.nets/.pl/.scl).
/// `use_gp_positions` writes Cell::gp coordinates instead of the legalized
/// ones for movable cells. Throws std::runtime_error naming the first file
/// that cannot be written.
void write_bookshelf(const Database& db, const std::string& dir,
                     const std::string& design,
                     bool use_gp_positions = false);

}  // namespace mrlg
