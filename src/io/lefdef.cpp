#include "io/lefdef.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>

#include "util/assert.hpp"
#include "util/str.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

[[noreturn]] void fail_in(const std::string& path, const std::string& what) {
    throw ParseError(path + ": " + what);
}

/// Whitespace tokenizer with ';', '(' and ')' as standalone tokens and
/// '#'-to-end-of-line comments stripped.
std::vector<std::string> tokenize_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        throw ParseError("cannot open " + path);
    }
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) {
            line.resize(hash);
        }
        std::string cur;
        auto flush = [&] {
            if (!cur.empty()) {
                tokens.push_back(cur);
                cur.clear();
            }
        };
        for (const char c : line) {
            if (c == ' ' || c == '\t' || c == '\r') {
                flush();
            } else if (c == ';' || c == '(' || c == ')') {
                flush();
                tokens.push_back(std::string(1, c));
            } else {
                cur.push_back(c);
            }
        }
        flush();
    }
    return tokens;
}

/// Cursor over the token stream with checked accessors.
class Cursor {
public:
    explicit Cursor(const std::string& path)
        : tokens_(tokenize_file(path)), path_(path) {}

    bool done() const { return pos_ >= tokens_.size(); }
    const std::string& peek() const {
        check(!done(), "unexpected end of file");
        return tokens_[pos_];
    }
    std::string next() {
        check(!done(), "unexpected end of file");
        return tokens_[pos_++];
    }
    double next_num() {
        const std::string t = next();
        double v = 0;
        check(parse_finite(t, v), "expected a number, got '" + t + "'");
        return v;
    }
    void expect(const std::string& tok) {
        const std::string t = next();
        check(t == tok, "expected '" + tok + "', got '" + t + "'");
    }
    /// Skips tokens until (and including) the next ';'.
    void skip_statement() {
        while (!done() && next() != ";") {
        }
    }
    void check(bool ok, const std::string& msg) const {
        if (!ok) {
            fail(msg);
        }
    }
    [[noreturn]] void fail(const std::string& msg) const {
        fail_in(path_, "near token " + std::to_string(pos_) + ": " + msg);
    }

private:
    std::vector<std::string> tokens_;
    std::size_t pos_ = 0;
    std::string path_;
};

/// Simple glob: '*' matches any suffix (the form ISPD GROUPS use).
bool pattern_matches(const std::string& pattern, const std::string& name) {
    const std::size_t star = pattern.find('*');
    if (star == std::string::npos) {
        return pattern == name;
    }
    return name.size() >= star &&
           name.compare(0, star, pattern, 0, star) == 0;
}

bool is_whole(double v) { return std::abs(v - std::round(v)) <= 1e-4; }

}  // namespace

LefLibrary read_lef(const std::string& path) {
    Cursor cur(path);
    LefLibrary lib;
    while (!cur.done()) {
        const std::string tok = cur.next();
        if (tok == "UNITS") {
            // UNITS DATABASE MICRONS <n> ; END UNITS
            while (!cur.done()) {
                const std::string t = cur.next();
                if (t == "END" && !cur.done() && cur.peek() == "UNITS") {
                    cur.next();
                    break;
                }
                if (t == "MICRONS") {
                    lib.dbu_per_micron = cur.next_num();
                }
            }
        } else if (tok == "SITE") {
            const std::string name = cur.next();
            while (true) {
                const std::string t = cur.next();
                if (t == "END" && cur.peek() == name) {
                    cur.next();
                    break;
                }
                if (t == "SIZE") {
                    lib.site_w_um = cur.next_num();
                    cur.expect("BY");
                    lib.site_h_um = cur.next_num();
                }
            }
        } else if (tok == "MACRO") {
            LefMacro macro;
            macro.name = cur.next();
            while (true) {
                const std::string t = cur.next();
                // Bare "END" tokens close nested PORT/OBS blocks; the
                // macro itself closes with "END <name>".
                if (t == "END" && cur.peek() == macro.name) {
                    cur.next();
                    break;
                }
                if (t == "SIZE") {
                    macro.w_um = cur.next_num();
                    cur.expect("BY");
                    macro.h_um = cur.next_num();
                } else if (t == "PIN") {
                    LefPin pin;
                    pin.name = cur.next();
                    bool have_rect = false;
                    while (true) {
                        const std::string pt = cur.next();
                        if (pt == "END" && cur.peek() == pin.name) {
                            cur.next();
                            break;
                        }
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
        fail_in(path, "LEF defines no SITE with a SIZE");
    }
    return lib;
}

DefReadResult read_def(const std::string& path, const LefLibrary& lef) {
    GridWriteScope grid_write;
    Cursor cur(path);
    DefReadResult result;
    double dbu = lef.dbu_per_micron;
    const double site_w = lef.site_w_um;
    const double site_h = lef.site_h_um;

    struct DefRow {
        double x_dbu, y_dbu;
        double num_sites;
    };
    std::vector<DefRow> rows;
    struct DefComp {
        std::string inst, macro, status;
        double x_dbu = 0, y_dbu = 0;
    };
    std::vector<DefComp> comps;
    struct DefRegion {
        std::string name;
        std::vector<std::array<double, 4>> rects;  ///< DBU (x1,y1,x2,y2).
    };
    std::vector<DefRegion> regions;
    struct DefGroup {
        std::vector<std::string> patterns;
        std::string region;
    };
    std::vector<DefGroup> groups;
    struct DefNet {
        std::string name;
        std::vector<std::pair<std::string, std::string>> pins;
    };
    std::vector<DefNet> nets;

    while (!cur.done()) {
        const std::string tok = cur.next();
        if (tok == "DESIGN" && result.design_name.empty()) {
            result.design_name = cur.next();
            cur.skip_statement();
        } else if (tok == "UNITS") {
            cur.expect("DISTANCE");
            cur.expect("MICRONS");
            dbu = cur.next_num();
            cur.skip_statement();
        } else if (tok == "ROW") {
            cur.next();  // row name
            cur.next();  // site name
            DefRow r{};
            r.x_dbu = cur.next_num();
            r.y_dbu = cur.next_num();
            cur.next();  // orient
            r.num_sites = 1;
            if (cur.peek() == "DO") {
                cur.next();
                r.num_sites = cur.next_num();
                cur.expect("BY");
                cur.next_num();  // rows in y (1)
            }
            cur.skip_statement();
            rows.push_back(r);
        } else if (tok == "COMPONENTS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefComp c;
                c.inst = cur.next();
                c.macro = cur.next();
                c.status = "UNPLACED";
                while (cur.peek() != ";") {
                    const std::string t = cur.next();
                    if (t == "PLACED" || t == "FIXED") {
                        c.status = t;
                        cur.expect("(");
                        c.x_dbu = cur.next_num();
                        c.y_dbu = cur.next_num();
                        cur.expect(")");
                    }
                }
                cur.expect(";");
                comps.push_back(std::move(c));
            }
            cur.expect("END");
            cur.expect("COMPONENTS");
        } else if (tok == "REGIONS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefRegion r;
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
                cur.skip_statement();
                regions.push_back(std::move(r));
            }
            cur.expect("END");
            cur.expect("REGIONS");
        } else if (tok == "GROUPS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefGroup g;
                cur.next();  // group name
                while (cur.peek() != ";") {
                    const std::string t = cur.next();
                    if (t == "+") {
                        if (cur.next() == "REGION") {
                            g.region = cur.next();
                        }
                    } else {
                        g.patterns.push_back(t);
                    }
                }
                cur.expect(";");
                groups.push_back(std::move(g));
            }
            cur.expect("END");
            cur.expect("GROUPS");
        } else if (tok == "NETS") {
            cur.next_num();
            cur.expect(";");
            while (cur.peek() == "-") {
                cur.next();
                DefNet n;
                n.name = cur.next();
                while (cur.peek() != ";") {
                    if (cur.next() == "(") {
                        const std::string inst = cur.next();
                        const std::string pin = cur.next();
                        cur.expect(")");
                        if (inst != "PIN") {  // die-level I/O pins skipped
                            n.pins.emplace_back(inst, pin);
                        }
                    }
                }
                cur.expect(";");
                nets.push_back(std::move(n));
            }
            cur.expect("END");
            cur.expect("NETS");
        }
    }

    // ---- build the floorplan ------------------------------------------------
    if (rows.empty()) {
        fail_in(path, "DEF has no ROW statements");
    }
    if (!(dbu > 0)) {
        fail_in(path, "UNITS DISTANCE MICRONS must be positive");
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
        const double expect_y = y0 + static_cast<double>(i) * site_h_dbu;
        if (std::abs(rows[i].y_dbu - expect_y) > 0.5) {
            fail_in(path, "DEF rows are not contiguous/uniform");
        }
        const double origin = rows[i].x_dbu / site_w_dbu;
        const double n = rows[i].num_sites;
        if (std::trunc(n) != n || n < 0 || !fits_coord(origin, n)) {
            fail_in(path, "ROW origin or DO count out of range");
        }
        fp.add_row(Row{static_cast<SiteCoord>(i),
                       static_cast<SiteCoord>(std::llround(origin)),
                       static_cast<SiteCoord>(n)});
    }

    // Fence regions.
    int next_region = 1;
    for (const DefRegion& r : regions) {
        const int id = next_region++;
        result.region_ids.emplace(r.name, id);
        for (const auto& q : r.rects) {
            const double x1 = std::round(q[0] / site_w_dbu);
            const double y1 = std::round((q[1] - y0) / site_h_dbu);
            const double x2 = std::round(q[2] / site_w_dbu);
            const double y2 = std::round((q[3] - y0) / site_h_dbu);
            if (!(x2 > x1 && y2 > y1) || !fits_coord(x1, x2 - x1) ||
                !fits_coord(y1, y2 - y1)) {
                fail_in(path, "region " + r.name +
                                  " has an empty or out-of-range rectangle");
            }
            const Rect rect{static_cast<SiteCoord>(x1),
                            static_cast<SiteCoord>(y1),
                            static_cast<SiteCoord>(x2 - x1),
                            static_cast<SiteCoord>(y2 - y1)};
            for (const Floorplan::Fence& f : fp.fences()) {
                if (f.region != id && f.rect.overlaps(rect)) {
                    fail_in(path, "region " + r.name +
                                      " overlaps another region");
                }
            }
            fp.add_fence(id, rect);
        }
    }

    Database db(std::move(fp));

    // Components: the node checks of the Bookshelf reader. Each one adds
    // exactly one cell, in file order, so a component's index in `comps`
    // is its CellId.
    const double num_rows = static_cast<double>(rows.size());
    for (const DefComp& c : comps) {
        const LefMacro* macro = lef.find_macro(c.macro);
        if (macro == nullptr) {
            fail_in(path, "component " + c.inst +
                              " references unknown macro " + c.macro);
        }
        const double w = macro->w_um / site_w;
        const double h = macro->h_um / site_h;
        if (!is_whole(w) || !is_whole(h)) {
            fail_in(path,
                    "macro " + c.macro + " is not site/row aligned in size");
        }
        if (!fits_size(w) || !fits_size(h)) {
            fail_in(path, "macro " + c.macro +
                              " must be at least one site wide and one row "
                              "tall, and fit the coordinate range");
        }
        const bool fixed = c.status == "FIXED";
        if (!fixed && std::round(h) > num_rows) {
            fail_in(path, "component " + c.inst +
                              " is movable and taller than the core's " +
                              std::to_string(rows.size()) + " rows");
        }
        if (db.find_cell(c.inst).valid()) {
            fail_in(path, "duplicate component name " + c.inst);
        }
        const double gx = c.x_dbu / site_w_dbu;
        const double gy = (c.y_dbu - y0) / site_h_dbu;
        if (!fits_coord(gx, w) || !fits_coord(gy, h)) {
            fail_in(path, "component " + c.inst +
                              " lies outside the coordinate range");
        }
        Cell cell(c.inst, static_cast<SiteCoord>(std::llround(w)),
                  static_cast<SiteCoord>(std::llround(h)), RailPhase::kEven,
                  fixed);
        cell.set_gp(gx, gy);
        if (fixed) {
            cell.set_pos(static_cast<SiteCoord>(std::llround(gx)),
                         static_cast<SiteCoord>(std::llround(gy)));
        }
        db.add_cell(std::move(cell));
    }

    // Group membership → cell regions. A group without `+ REGION` places
    // no constraint on its members.
    for (const DefGroup& g : groups) {
        if (g.region.empty()) {
            continue;
        }
        const auto rit = result.region_ids.find(g.region);
        if (rit == result.region_ids.end()) {
            fail_in(path, "GROUPS references unknown region " + g.region);
        }
        for (std::size_t i = 0; i < db.num_cells(); ++i) {
            Cell& cell = db.cell(CellId{static_cast<CellId::underlying>(i)});
            for (const std::string& pat : g.patterns) {
                if (pattern_matches(pat, cell.name())) {
                    cell.set_region(rit->second);
                    break;
                }
            }
        }
    }

    // Nets.
    for (const DefNet& n : nets) {
        if (db.find_net(n.name).valid()) {
            fail_in(path, "duplicate net name " + n.name);
        }
        const NetId net = db.add_net(n.name);
        for (const auto& [inst, pin_name] : n.pins) {
            const CellId cid = db.find_cell(inst);
            if (!cid.valid()) {
                fail_in(path, "NET " + n.name +
                                  " references unknown component " + inst);
            }
            // Pin offset from the LEF macro (centre of the cell if the
            // pin is unknown — robust to trimmed libraries). The component
            // loop above resolved every macro.
            double ox = db.cell(cid).width() / 2.0;
            double oy = db.cell(cid).height() / 2.0;
            const auto& pins = lef.find_macro(comps[cid.index()].macro)->pins;
            const auto pit = pins.find(pin_name);
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
    MRLG_ASSERT(static_cast<bool>(out), "cannot open DEF for writing: " +
                                            path);
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
}

}  // namespace mrlg
