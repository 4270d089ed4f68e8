#include "io/lefdef.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <string_view>

#include "db/write_cap.hpp"
#include "io/text_file.hpp"

namespace mrlg {

namespace {

using io_detail::fail_at;

bool is_punct(char c) { return c == ';' || c == '(' || c == ')'; }

/// LEF/DEF tokens: an InputFile's whitespace tokens with ';', '(' and ')'
/// split off as tokens of their own, all views into the file's buffer.
/// The cursor looks one token ahead, possibly onto a later line; an error
/// names the line of the token next() returned last.
class Cursor {
public:
    explicit Cursor(const std::string& path) : file_(path) { advance(); }

    std::size_t line() const { return line_; }
    bool done() const { return ahead_.empty(); }
    std::string_view peek() const {
        if (done()) {
            fail("unexpected end of file");
        }
        return ahead_;
    }
    std::string_view next() {
        const std::string_view t = peek();
        line_ = ahead_line_;
        advance();
        return t;
    }
    double next_num() {
        const std::string_view t = next();
        double v = 0;
        if (!parse_finite(t, v)) {
            fail("expected a number, got '" + std::string(t) + "'");
        }
        return v;
    }
    void expect(std::string_view tok) {
        const std::string_view t = next();
        if (t != tok) {
            fail("expected '" + std::string(tok) + "', got '" +
                 std::string(t) + "'");
        }
    }
    /// True, once past "END <name>", when `t` is an END closing `name`.
    bool closes(std::string_view t, std::string_view name) {
        if (t != "END" || done() || ahead_ != name) {
            return false;
        }
        next();
        return true;
    }
    /// Skips tokens until (and including) the next ';'.
    void skip_statement() {
        while (!done() && next() != ";") {
        }
    }
    /// Reads the rest of a `<name> n ; - … ; … END <name>` section;
    /// `entry` reads each statement from after its '-'.
    template <typename Entry>
    void section(std::string_view name, Entry entry) {
        next_num();
        expect(";");
        while (peek() == "-") {
            next();
            entry();
            skip_statement();
        }
        expect("END");
        expect(name);
    }
    [[noreturn]] void fail(const std::string& msg) const {
        fail_at(file_.path(), line_, msg);
    }

private:
    /// Moves the look-ahead to the next token.
    void advance() {
        while (word_.empty()) {
            word_ = file_.token();
            if (word_.empty() && !file_.next_line()) {
                ahead_ = {};
                return;
            }
        }
        std::size_t n = 1;
        while (!is_punct(word_[0]) && n < word_.size() &&
               !is_punct(word_[n])) {
            ++n;
        }
        ahead_ = word_.substr(0, n);
        ahead_line_ = file_.line();
        word_.remove_prefix(n);
    }

    io_detail::InputFile file_;
    std::string_view word_;   ///< The current whitespace token's unsplit rest.
    std::string_view ahead_;  ///< The look-ahead token; empty at the end.
    std::size_t ahead_line_ = 0;
    std::size_t line_ = 0;
};

/// Simple glob: '*' matches any suffix (the form ISPD GROUPS use).
bool pattern_matches(std::string_view pattern, std::string_view name) {
    const std::size_t star = pattern.find('*');
    if (star == std::string_view::npos) {
        return pattern == name;
    }
    return name.starts_with(pattern.substr(0, star));
}

bool is_whole(double v) { return std::abs(v - std::round(v)) <= 1e-4; }

}  // namespace

LefLibrary read_lef(const std::string& path) {
    Cursor cur(path);
    LefLibrary lib;
    while (!cur.done()) {
        const std::string_view tok = cur.next();
        if (tok == "UNITS") {
            // UNITS DATABASE MICRONS <n> ; END UNITS
            while (!cur.done()) {
                const std::string_view t = cur.next();
                if (cur.closes(t, "UNITS")) {
                    break;
                }
                if (t == "MICRONS") {
                    lib.dbu_per_micron = cur.next_num();
                    if (!(lib.dbu_per_micron > 0)) {
                        cur.fail("UNITS DATABASE MICRONS must be positive");
                    }
                }
            }
        } else if (tok == "SITE") {
            const std::string_view name = cur.next();
            for (std::string_view t = cur.next(); !cur.closes(t, name);
                 t = cur.next()) {
                if (t == "SIZE") {
                    lib.site_w_um = cur.next_num();
                    cur.expect("BY");
                    lib.site_h_um = cur.next_num();
                }
            }
        } else if (tok == "MACRO") {
            LefMacro macro;
            macro.name = cur.next();
            // Bare "END" tokens close nested PORT/OBS blocks; the macro
            // itself closes with "END <name>".
            for (std::string_view t = cur.next(); !cur.closes(t, macro.name);
                 t = cur.next()) {
                if (t == "SIZE") {
                    macro.w_um = cur.next_num();
                    cur.expect("BY");
                    macro.h_um = cur.next_num();
                } else if (t == "PIN") {
                    LefPin pin;
                    pin.name = cur.next();
                    bool have_rect = false;
                    for (std::string_view pt = cur.next();
                         !cur.closes(pt, pin.name); pt = cur.next()) {
                        if (pt == "RECT" && !have_rect) {
                            const double x1 = cur.next_num();
                            const double y1 = cur.next_num();
                            const double x2 = cur.next_num();
                            const double y2 = cur.next_num();
                            pin.offset_x_um = (x1 + x2) / 2.0;
                            pin.offset_y_um = (y1 + y2) / 2.0;
                            have_rect = true;
                        }
                    }
                    macro.pins.emplace(pin.name, pin);
                }
            }
            lib.macros.emplace(macro.name, std::move(macro));
        }
        // Unknown top-level tokens are skipped token-by-token.
    }
    if (lib.site_w_um <= 0 || lib.site_h_um <= 0) {
        throw ParseError(path + ": LEF defines no SITE with a SIZE");
    }
    return lib;
}

DefReadResult read_def(const std::string& path, const LefLibrary& lef) {
    GridWriteScope grid_write;
    Cursor cur(path);
    DefReadResult result;
    double dbu = lef.dbu_per_micron;
    std::size_t units_line = 0;
    const double site_w = lef.site_w_um;
    const double site_h = lef.site_h_um;

    // Each statement is staged with the line it starts on, for the checks
    // below. Names stay views into the file's buffer until they go into
    // the Database.
    struct DefRow {
        double x_dbu, y_dbu;
        double num_sites;
        std::size_t line;
    };
    std::vector<DefRow> rows;
    struct DefComp {
        std::string_view inst, macro;
        bool fixed = false;
        double x_dbu = 0, y_dbu = 0;
        std::size_t line = 0;
    };
    std::vector<DefComp> comps;
    struct DefRegion {
        std::string_view name;
        std::vector<std::array<double, 4>> rects;  ///< DBU (x1,y1,x2,y2).
        std::size_t line = 0;
    };
    std::vector<DefRegion> regions;
    struct DefGroup {
        std::vector<std::string_view> patterns;
        std::string_view region;
        std::size_t line = 0;
    };
    std::vector<DefGroup> groups;
    struct DefNet {
        std::string_view name;
        std::vector<std::pair<std::string_view, std::string_view>> pins;
        std::size_t line = 0;
    };
    std::vector<DefNet> nets;

    while (!cur.done()) {
        const std::string_view tok = cur.next();
        if (tok == "DESIGN" && result.design_name.empty()) {
            result.design_name = cur.next();
            cur.skip_statement();
        } else if (tok == "UNITS") {
            units_line = cur.line();
            cur.expect("DISTANCE");
            cur.expect("MICRONS");
            dbu = cur.next_num();
            cur.skip_statement();
        } else if (tok == "ROW") {
            DefRow r{0, 0, 1, cur.line()};
            cur.next();  // row name
            cur.next();  // site name
            r.x_dbu = cur.next_num();
            r.y_dbu = cur.next_num();
            cur.next();  // orient
            if (cur.peek() == "DO") {
                cur.next();
                r.num_sites = cur.next_num();
                cur.expect("BY");
                cur.next_num();  // rows in y (1)
            }
            cur.skip_statement();
            rows.push_back(r);
        } else if (tok == "COMPONENTS") {
            cur.section(tok, [&] {
                DefComp& c = comps.emplace_back();
                c.line = cur.line();
                c.inst = cur.next();
                c.macro = cur.next();
                while (cur.peek() != ";") {
                    const std::string_view t = cur.next();
                    if (t == "PLACED" || t == "FIXED") {
                        c.fixed = t == "FIXED";
                        cur.expect("(");
                        c.x_dbu = cur.next_num();
                        c.y_dbu = cur.next_num();
                        cur.expect(")");
                    }
                }
            });
        } else if (tok == "REGIONS") {
            cur.section(tok, [&] {
                DefRegion& r = regions.emplace_back();
                r.line = cur.line();
                r.name = cur.next();
                while (cur.peek() == "(") {
                    cur.next();
                    const double x1 = cur.next_num();
                    const double y1 = cur.next_num();
                    cur.expect(")");
                    cur.expect("(");
                    const double x2 = cur.next_num();
                    const double y2 = cur.next_num();
                    cur.expect(")");
                    r.rects.push_back({x1, y1, x2, y2});
                }
            });
        } else if (tok == "GROUPS") {
            cur.section(tok, [&] {
                DefGroup& g = groups.emplace_back();
                g.line = cur.line();
                cur.next();  // group name
                while (cur.peek() != ";") {
                    const std::string_view t = cur.next();
                    if (t != "+") {
                        g.patterns.push_back(t);
                    } else if (cur.next() == "REGION") {
                        g.region = cur.next();
                    }
                }
            });
        } else if (tok == "NETS") {
            cur.section(tok, [&] {
                DefNet& n = nets.emplace_back();
                n.line = cur.line();
                n.name = cur.next();
                while (cur.peek() != ";") {
                    if (cur.next() == "(") {
                        const std::string_view inst = cur.next();
                        const std::string_view pin = cur.next();
                        cur.expect(")");
                        if (inst != "PIN") {  // die-level I/O pins skipped
                            n.pins.emplace_back(inst, pin);
                        }
                    }
                }
            });
        }
    }

    // ---- build the floorplan ------------------------------------------------
    if (rows.empty()) {
        throw ParseError(path + ": DEF has no ROW statements");
    }
    if (!(dbu > 0)) {  // read_lef refuses a LEF unit that is not positive
        fail_at(path, units_line, "UNITS DISTANCE MICRONS must be positive");
    }
    std::sort(rows.begin(), rows.end(),
              [](const DefRow& a, const DefRow& b) {
                  return a.y_dbu < b.y_dbu;
              });
    const double site_w_dbu = site_w * dbu;
    const double site_h_dbu = site_h * dbu;
    const double y0 = rows.front().y_dbu;
    Floorplan fp;
    fp.set_site_dims_um(site_w, site_h);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const DefRow& r = rows[i];
        const double expect_y = y0 + static_cast<double>(i) * site_h_dbu;
        if (std::abs(r.y_dbu - expect_y) > 0.5) {
            fail_at(path, r.line, "DEF rows are not contiguous/uniform");
        }
        const double origin = r.x_dbu / site_w_dbu;
        const double n = r.num_sites;
        if (std::trunc(n) != n || n < 0 || !fits_coord(origin, n)) {
            fail_at(path, r.line, "ROW origin or DO count out of range");
        }
        fp.add_row(Row{static_cast<SiteCoord>(i),
                       static_cast<SiteCoord>(std::llround(origin)),
                       static_cast<SiteCoord>(n)});
    }

    // Fence regions.
    int next_region = 1;
    for (const DefRegion& r : regions) {
        const int id = next_region++;
        const std::string name(r.name);
        result.region_ids.emplace(name, id);
        for (const auto& q : r.rects) {
            const double x1 = std::round(q[0] / site_w_dbu);
            const double y1 = std::round((q[1] - y0) / site_h_dbu);
            const double x2 = std::round(q[2] / site_w_dbu);
            const double y2 = std::round((q[3] - y0) / site_h_dbu);
            if (!(x2 > x1 && y2 > y1) || !fits_coord(x1, x2 - x1) ||
                !fits_coord(y1, y2 - y1)) {
                fail_at(path, r.line, "region " + name +
                                          " has an empty or out-of-range "
                                          "rectangle");
            }
            const Rect rect{static_cast<SiteCoord>(x1),
                            static_cast<SiteCoord>(y1),
                            static_cast<SiteCoord>(x2 - x1),
                            static_cast<SiteCoord>(y2 - y1)};
            for (const Floorplan::Fence& f : fp.fences()) {
                if (f.region != id && f.rect.overlaps(rect)) {
                    fail_at(path, r.line,
                            "region " + name + " overlaps another region");
                }
            }
            fp.add_fence(id, rect);
        }
    }

    Database db(std::move(fp));

    // Components: the node checks of the Bookshelf reader. Each one adds
    // exactly one cell, in file order, so a component's index in `comps`
    // is its CellId, and its LEF macro is `macros` at that index.
    const double num_rows = static_cast<double>(rows.size());
    std::vector<const LefMacro*> macros;
    macros.reserve(comps.size());
    for (const DefComp& c : comps) {
        const std::string inst(c.inst);
        const std::string macro_name(c.macro);
        const LefMacro* macro = lef.find_macro(macro_name);
        if (macro == nullptr) {
            fail_at(path, c.line, "component " + inst +
                                      " references unknown macro " +
                                      macro_name);
        }
        const double w = macro->w_um / site_w;
        const double h = macro->h_um / site_h;
        if (!is_whole(w) || !is_whole(h)) {
            fail_at(path, c.line,
                    "macro " + macro_name + " is not site/row aligned in size");
        }
        if (!fits_size(w) || !fits_size(h)) {
            fail_at(path, c.line, "macro " + macro_name +
                                      " must be at least one site wide and "
                                      "one row tall, and fit the coordinate "
                                      "range");
        }
        if (!c.fixed && std::round(h) > num_rows) {
            fail_at(path, c.line, "component " + inst +
                                      " is movable and taller than the "
                                      "core's " +
                                      std::to_string(rows.size()) + " rows");
        }
        if (db.find_cell(inst).valid()) {
            fail_at(path, c.line, "duplicate component name " + inst);
        }
        const double gx = c.x_dbu / site_w_dbu;
        const double gy = (c.y_dbu - y0) / site_h_dbu;
        if (!fits_coord(gx, w) || !fits_coord(gy, h)) {
            fail_at(path, c.line, "component " + inst +
                                      " lies outside the coordinate range");
        }
        Cell cell(inst, static_cast<SiteCoord>(std::llround(w)),
                  static_cast<SiteCoord>(std::llround(h)), RailPhase::kEven,
                  c.fixed);
        cell.set_gp(gx, gy);
        if (c.fixed) {
            cell.set_pos(static_cast<SiteCoord>(std::llround(gx)),
                         static_cast<SiteCoord>(std::llround(gy)));
        }
        db.add_cell(std::move(cell));
        macros.push_back(macro);
    }

    // Group membership → cell regions. A group without `+ REGION` places
    // no constraint on its members.
    for (const DefGroup& g : groups) {
        if (g.region.empty()) {
            continue;
        }
        const auto rit = result.region_ids.find(std::string(g.region));
        if (rit == result.region_ids.end()) {
            fail_at(path, g.line, "GROUPS references unknown region " +
                                      std::string(g.region));
        }
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
            for (const std::string_view pat : g.patterns) {
                if (pattern_matches(pat, cell.name())) {
                    cell.set_region(rit->second);
                    break;
                }
            }
        }
    }

    // Nets.
    for (const DefNet& n : nets) {
        const std::string name(n.name);
        if (db.find_net(name).valid()) {
            fail_at(path, n.line, "duplicate net name " + name);
        }
        const NetId net = db.add_net(name);
        for (const auto& [inst, pin_name] : n.pins) {
            const CellId cid = db.find_cell(inst);
            if (!cid.valid()) {
                fail_at(path, n.line, "NET " + name +
                                          " references unknown component " +
                                          std::string(inst));
            }
            // Pin offset from the LEF macro (centre of the cell if the
            // pin is unknown — robust to trimmed libraries).
            double ox = db.cell(cid).width() / 2.0;
            double oy = db.cell(cid).height() / 2.0;
            const auto& pins = macros[cid.index()]->pins;
            const auto pit = pins.find(std::string(pin_name));
            if (pit != pins.end()) {
                ox = pit->second.offset_x_um / site_w;
                oy = pit->second.offset_y_um / site_h;
            }
            db.add_pin(cid, net, ox, oy);
        }
    }

    result.db = std::move(db);
    return result;
}

void write_def(const Database& db, const LefLibrary& lef,
               const std::string& path, const std::string& design) {
    std::ofstream out(path);
    const double dbu = lef.dbu_per_micron;
    const double site_w_dbu = lef.site_w_um * dbu;
    const double site_h_dbu = lef.site_h_um * dbu;
    const Rect die = db.floorplan().die();

    out << "VERSION 5.8 ;\nDESIGN " << design << " ;\n"
        << "UNITS DISTANCE MICRONS " << static_cast<long>(dbu) << " ;\n";
    out << "DIEAREA ( " << static_cast<long>(die.x * site_w_dbu) << " 0 ) ( "
        << static_cast<long>(die.x_hi() * site_w_dbu) << " "
        << static_cast<long>(die.h * site_h_dbu) << " ) ;\n";
    for (const Row& r : db.floorplan().rows()) {
        out << "ROW row_" << r.y << " core "
            << static_cast<long>(r.x * site_w_dbu) << " "
            << static_cast<long>(r.y * site_h_dbu) << " N DO "
            << r.num_sites << " BY 1 STEP "
            << static_cast<long>(site_w_dbu) << " 0 ;\n";
    }
    out << "COMPONENTS " << db.num_cells() << " ;\n";
    for (const Cell& c : db.cells()) {
        out << "- " << c.name() << " " << c.name() << "_master + ";
        if (c.fixed()) {
            out << "FIXED ( " << static_cast<long>(c.x() * site_w_dbu)
                << " " << static_cast<long>(c.y() * site_h_dbu) << " ) N";
        } else if (c.placed()) {
            out << "PLACED ( " << static_cast<long>(c.x() * site_w_dbu)
                << " " << static_cast<long>(c.y() * site_h_dbu) << " ) "
                << (c.orient() == Orient::kN ? "N" : "FS");
        } else {
            out << "UNPLACED";
        }
        out << " ;\n";
    }
    out << "END COMPONENTS\n";
    out << "NETS " << db.nets().size() << " ;\n";
    for (const Net& n : db.nets()) {
        out << "- " << n.name();
        for (const PinId pid : n.pins()) {
            out << " ( " << db.cell(db.pin(pid).cell).name() << " p" << pid
                << " )";
        }
        out << " ;\n";
    }
    out << "END NETS\nEND DESIGN\n";
    io_detail::close_written(out, path);
}

}  // namespace mrlg
