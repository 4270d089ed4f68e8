#pragma once
/// \file lefdef.hpp
/// LEF/DEF-lite reader and DEF writer — the formats the ISPD2015 contest
/// actually shipped (the paper's §6 benchmarks). This is deliberately a
/// subset: enough grammar to ingest a detailed-placement benchmark and
/// emit a legal DEF back.
///
/// Supported LEF:  UNITS DATABASE MICRONS, SITE (SIZE), MACRO (CLASS,
///   SIZE, PIN/PORT/RECT — pin offset = centre of the first rect).
/// Supported DEF:  VERSION, DESIGN, UNITS, DIEAREA, ROW, COMPONENTS
///   (PLACED / FIXED / UNPLACED), REGIONS + GROUPS (fence regions), NETS
///   (component pins only; PIN-to-die I/O pins are skipped).
///
/// Geometry is converted to mrlg's site units on load: LEF sizes must be
/// integral multiples of the site; DEF placements snap from DBU.
///
/// Both files stream through the Bookshelf reader's buffered InputFile
/// (io/text_file.hpp), so a LEF or DEF may also come from a pipe.
/// Malformed input throws ParseError (io/parse.hpp) as `<file>:<line>:
/// <what>`, as the Bookshelf reader does: every number must be a whole
/// finite token, and a component gets the Bookshelf node checks (a unique
/// name, a size of at least one site and row in range, a movable cell no
/// taller than the core, a position in range). Only a LEF with no sized
/// SITE and a DEF with no ROW fail as `<file>: <what>`.

#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.hpp"
#include "io/parse.hpp"

namespace mrlg {

struct LefPin {
    std::string name;
    double offset_x_um = 0.0;  ///< From macro lower-left.
    double offset_y_um = 0.0;
};

struct LefMacro {
    std::string name;
    double w_um = 0.0;
    double h_um = 0.0;
    std::unordered_map<std::string, LefPin> pins;
};

struct LefLibrary {
    double site_w_um = 0.0;
    double site_h_um = 0.0;
    double dbu_per_micron = 1000.0;
    std::unordered_map<std::string, LefMacro> macros;

    const LefMacro* find_macro(const std::string& name) const {
        const auto it = macros.find(name);
        return it == macros.end() ? nullptr : &it->second;
    }
};

/// Parses the LEF subset. Throws ParseError on malformed input.
LefLibrary read_lef(const std::string& path);

/// The DEF names a Database has no field for, as read_def found them, so
/// that write_def can give them back.
struct DefNames {
    std::vector<std::string> macros;   ///< CellId → its LEF macro name.
    std::vector<std::string> pins;     ///< PinId → its DEF pin name.
    std::vector<std::string> regions;  ///< Region id − 1 → REGION name.
};

struct DefReadResult {
    Database db;
    std::string design_name;
    DefNames names;
};

/// Parses the DEF subset against `lef`. Component positions become gp
/// positions (and fixed cells are frozen); REGIONS/GROUPS become fence
/// regions, numbered from 1 in REGIONS order. The caller still runs
/// Database::freeze_fixed_cells(). Throws ParseError on malformed input.
DefReadResult read_def(const std::string& path, const LefLibrary& lef);

/// Writes the current placement as DEF (components PLACED at legalized
/// positions, or UNPLACED when a movable cell has none), with each
/// component's macro and each net pin named by `names`, one REGION per
/// fence region before COMPONENTS and, after NETS, one GROUP listing its
/// members. Read back against the same `lef`, it gives the same cells,
/// rows, fences and nets, with the placement as gp positions. `names`
/// must name every cell's macro, every pin and every region of `db`
/// (AssertionError otherwise). Throws std::runtime_error naming `path`
/// when the file cannot be written.
void write_def(const Database& db, const LefLibrary& lef,
               const std::string& path, const std::string& design,
               const DefNames& names);

}  // namespace mrlg
