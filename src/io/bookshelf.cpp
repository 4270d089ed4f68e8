#include "io/bookshelf.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "db/write_cap.hpp"
#include "io/text_file.hpp"
#include "util/geometry.hpp"
#include "util/str.hpp"

namespace mrlg {

namespace {

namespace fs = std::filesystem;

using io_detail::fail_at;
using io_detail::InputFile;

struct SclRow {
    double coord_y = 0;
    double height = 0;
    double site_width = 1;
    double subrow_origin = 0;
    double num_sites = 0;
    std::size_t line = 0;  ///< Line of the row's CoreRow keyword.
};

/// What the .scl fixes for the other files: the site and row size in
/// bookshelf units, the lowest row's y, and the row count.
struct Frame {
    double site_w = 1;
    double row_h = 1;
    double y0 = 0;
    SiteCoord num_rows = 0;
};

std::vector<SclRow> read_scl_rows(InputFile& f) {
    std::vector<SclRow> rows;
    SclRow cur;
    bool in_row = false;
    while (f.next_line()) {
        std::string_view a = f.token();
        if (iequals(a, "CoreRow")) {
            in_row = true;
            cur = SclRow{};
            cur.line = f.line();
            continue;
        }
        if (!in_row) {
            continue;
        }
        if (iequals(a, "End")) {
            rows.push_back(cur);
            in_row = false;
            continue;
        }
        // "Key : value" pairs; a line may hold several. The window
        // (a, b, c) slides one token at a time.
        std::string_view b = f.token();
        for (std::string_view c = f.token(); !c.empty();
             a = b, b = c, c = f.token()) {
            if (b != ":") {
                continue;
            }
            if (iequals(a, "Coordinate")) {
                cur.coord_y = f.number(c);
            } else if (iequals(a, "Height")) {
                cur.height = f.number(c);
            } else if (iequals(a, "Sitewidth")) {
                cur.site_width = f.number(c);
            } else if (iequals(a, "SubrowOrigin")) {
                cur.subrow_origin = f.number(c);
            } else if (iequals(a, "NumSites")) {
                cur.num_sites = f.integer(c);
            }
        }
    }
    if (rows.empty()) {
        throw ParseError("no rows in " + f.path());
    }
    return rows;
}

/// Reads the .scl into a floorplan and the frame the other files use.
Floorplan read_scl(const fs::path& path, Frame& frame) {
    InputFile f(path);
    std::vector<SclRow> rows = read_scl_rows(f);
    std::stable_sort(rows.begin(), rows.end(),
                     [](const SclRow& a, const SclRow& b) {
                         return a.coord_y < b.coord_y;
                     });
    frame.row_h = rows[0].height;
    frame.site_w = rows[0].site_width;
    frame.y0 = rows[0].coord_y;
    frame.num_rows = static_cast<SiteCoord>(rows.size());
    if (!(frame.row_h > 0 && frame.site_w > 0)) {
        fail_at(f.path(), rows[0].line,
                "row height and site width must be positive");
    }
    Floorplan fp;
    fp.set_site_dims_um(frame.site_w, frame.row_h);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SclRow& r = rows[i];
        if (std::abs(r.height - frame.row_h) > 1e-6 ||
            std::abs(r.site_width - frame.site_w) > 1e-6) {
            fail_at(f.path(), r.line, "non-uniform row height / site width");
        }
        const double expect_y =
            frame.y0 + static_cast<double>(i) * frame.row_h;
        if (std::abs(r.coord_y - expect_y) > 1e-6) {
            fail_at(f.path(), r.line, "rows are not contiguous");
        }
        const double origin = r.subrow_origin / frame.site_w;
        if (r.num_sites < 0 || !fits_coord(origin, r.num_sites)) {
            fail_at(f.path(), r.line,
                    "row origin or NumSites out of range");
        }
        fp.add_row(Row{static_cast<SiteCoord>(i),
                       static_cast<SiteCoord>(std::llround(origin)),
                       static_cast<SiteCoord>(r.num_sites)});
    }
    return fp;
}

/// Reads the .nodes into `db`. Returns each terminal with its line, so a
/// terminal the .pl never places can be named.
std::vector<std::pair<CellId, std::size_t>> read_nodes(const fs::path& path,
                                                       const Frame& frame,
                                                       Database& db)
    MRLG_REQUIRES(grid_write_cap()) {
    InputFile f(path);
    std::vector<std::pair<CellId, std::size_t>> terminals;
    while (f.next_line()) {
        const std::string_view name = f.token();
        if (name.starts_with("UCLA") || iequals(name, "NumTerminals")) {
            continue;
        }
        if (iequals(name, "NumNodes")) {
            db.presize(f.count_hint(), 0, 0);
            continue;
        }
        const std::string_view w_tok = f.token();
        const std::string_view h_tok = f.token();
        if (h_tok.empty()) {
            f.fail("bad node line '" + std::string(f.text()) + "'");
        }
        const double w_sites = f.number(w_tok) / frame.site_w;
        const double h_rows = f.number(h_tok) / frame.row_h;
        const std::string_view kind = f.token();
        const bool terminal =
            iequals(kind, "terminal") || iequals(kind, "terminal_NI");
        const auto fail_node = [&](const std::string& what) {
            f.fail("node " + std::string(name) + " " + what);
        };
        if (std::abs(w_sites - std::round(w_sites)) > 1e-6 ||
            std::abs(h_rows - std::round(h_rows)) > 1e-6) {
            fail_node("is not site/row aligned in size");
        }
        if (!fits_size(w_sites) || !fits_size(h_rows)) {
            fail_node("must be at least one site wide and one row tall, "
                      "and fit the coordinate range");
        }
        if (!terminal && std::round(h_rows) > frame.num_rows) {
            fail_node("is movable and taller than the core's " +
                      std::to_string(frame.num_rows) + " rows");
        }
        if (db.find_cell(name).valid()) {
            f.fail("duplicate node name " + std::string(name));
        }
        const CellId id = db.add_cell(
            Cell(std::string(name),
                 static_cast<SiteCoord>(std::llround(w_sites)),
                 static_cast<SiteCoord>(std::llround(h_rows)),
                 RailPhase::kEven, terminal));
        if (terminal) {
            terminals.emplace_back(id, f.line());
        }
    }
    return terminals;
}

void read_pl(const fs::path& path, const Frame& frame, Database& db)
    MRLG_REQUIRES(grid_write_cap()) {
    InputFile f(path);
    while (f.next_line()) {
        const std::string_view name = f.token();
        if (name.starts_with("UCLA")) {
            continue;
        }
        const std::string_view x_tok = f.token();
        const std::string_view y_tok = f.token();
        if (y_tok.empty()) {
            f.fail("bad pl line '" + std::string(f.text()) + "'");
        }
        const CellId id = db.find_cell(name);
        if (!id.valid()) {
            f.fail("pl references unknown node " + std::string(name));
        }
        const double x = f.number(x_tok) / frame.site_w;
        const double y = (f.number(y_tok) - frame.y0) / frame.row_h;
        Cell& cell = db.cell(id);
        if (!fits_coord(x, cell.width()) || !fits_coord(y, cell.height())) {
            f.fail("node " + std::string(name) +
                   " lies outside the coordinate range");
        }
        cell.set_gp(x, y);
        bool fixed_marker = false;
        for (std::string_view t = f.token(); !t.empty(); t = f.token()) {
            if (iequals(t, "/FIXED") || iequals(t, "/FIXED_NI")) {
                fixed_marker = true;
            }
        }
        if (cell.fixed() || fixed_marker) {
            cell.set_pos(static_cast<SiteCoord>(std::llround(x)),
                         static_cast<SiteCoord>(std::llround(y)));
        }
    }
}

/// Reads the .nets. Pin lines are resolved NameIndex::kBatch at a time
/// (Database::find_cells) and added in file order, so pin ids and every
/// cell's and net's pin order are those of a line-by-line read.
void read_nets(const fs::path& path, const Frame& frame, Database& db)
    MRLG_REQUIRES(grid_write_cap()) {
    InputFile f(path);
    struct PendingPin {
        NetId net;
        double dx = 0;
        double dy = 0;
        std::size_t line = 0;
    };
    std::array<std::string_view, NameIndex::kBatch> names{};
    std::array<PendingPin, NameIndex::kBatch> pins{};
    std::array<CellId, NameIndex::kBatch> ids{};
    std::size_t pending = 0;
    const auto flush = [&] {
        assert_grid_write_cap();
        const std::size_t n = std::exchange(pending, 0);
        db.find_cells({names.data(), n}, {ids.data(), n});
        for (std::size_t i = 0; i < n; ++i) {
            const PendingPin& p = pins[i];
            if (!ids[i].valid()) {
                fail_at(f.path(), p.line,
                        "nets references unknown node " +
                            std::string(names[i]));
            }
            // "nodename I/O/B : dx dy" — offsets from the node centre.
            const Cell& cell = db.cell(ids[i]);
            const double ox =
                static_cast<double>(cell.width()) / 2.0 + p.dx / frame.site_w;
            const double oy = static_cast<double>(cell.height()) / 2.0 +
                              p.dy / frame.row_h;
            if (!std::isfinite(ox) || !std::isfinite(oy)) {
                fail_at(f.path(), p.line, "pin offset overflows");
            }
            db.add_pin(ids[i], p.net, ox, oy);
        }
    };

    NetId cur_net;
    int net_counter = 0;
    try {
        while (f.next_line()) {
            const std::string_view first = f.token();
            if (first.starts_with("UCLA")) {
                continue;
            }
            if (iequals(first, "NumNets")) {
                db.presize(0, f.count_hint(), 0);
                continue;
            }
            if (iequals(first, "NumPins")) {
                db.presize(0, 0, f.count_hint());
                continue;
            }
            if (iequals(first, "NetDegree")) {
                // "NetDegree : k [name]": the degree is not needed, the pin
                // lines that follow are the net's pins.
                f.token();
                f.token();
                const std::string_view tok = f.token();
                std::string name = tok.empty()
                                       ? "net_" + std::to_string(net_counter)
                                       : std::string(tok);
                ++net_counter;
                if (db.find_net(name).valid()) {
                    f.fail("duplicate net name " + name);
                }
                cur_net = db.add_net(std::move(name));
                continue;
            }
            if (!cur_net.valid()) {
                f.fail("pin line before NetDegree '" + std::string(f.text()) +
                       "'");
            }
            double dx = 0;
            double dy = 0;
            for (std::string_view t = f.token(); !t.empty(); t = f.token()) {
                if (t == ":") {
                    if (const std::string_view tx = f.token(); !tx.empty()) {
                        dx = f.number(tx);
                    }
                    if (const std::string_view ty = f.token(); !ty.empty()) {
                        dy = f.number(ty);
                    }
                    break;
                }
            }
            names[pending] = first;
            pins[pending] = PendingPin{cur_net, dx, dy, f.line()};
            if (++pending == NameIndex::kBatch) {
                flush();
            }
        }
    } catch (const ParseError&) {
        // A pending pin on an earlier line may name an unknown node:
        // resolve those first, so the error reported is the file's first.
        flush();
        throw;
    }
    flush();
}

}  // namespace

BookshelfReadResult read_bookshelf(const std::string& aux_path) {
    GridWriteScope grid_write;
    const fs::path aux(aux_path);
    const fs::path dir = aux.parent_path();

    std::string nodes_file;
    std::string nets_file;
    std::string pl_file;
    std::string scl_file;
    {
        InputFile f(aux);
        if (!f.next_line()) {
            throw ParseError("empty aux file: " + aux_path);
        }
        for (std::string_view tok = f.token(); !tok.empty(); tok = f.token()) {
            if (tok.ends_with(".nodes")) {
                nodes_file = tok;
            } else if (tok.ends_with(".nets")) {
                nets_file = tok;
            } else if (tok.ends_with(".pl")) {
                pl_file = tok;
            } else if (tok.ends_with(".scl")) {
                scl_file = tok;
            }
        }
    }
    if (nodes_file.empty() || pl_file.empty() || scl_file.empty()) {
        throw ParseError("aux file must reference .nodes, .pl and .scl: " +
                         aux_path);
    }

    Frame frame;
    Database db(read_scl(dir / scl_file, frame));
    const auto terminals = read_nodes(dir / nodes_file, frame, db);
    read_pl(dir / pl_file, frame, db);
    for (const auto& [id, line] : terminals) {
        if (!db.cell(id).placed()) {
            fail_at((dir / nodes_file).string(), line,
                    "terminal " + db.cell(id).name() + " has no position in " +
                        (dir / pl_file).string());
        }
    }
    std::error_code ec;
    if (!nets_file.empty() && fs::exists(dir / nets_file, ec)) {
        read_nets(dir / nets_file, frame, db);
    }
    return BookshelfReadResult{std::move(db), aux.stem().string()};
}

void write_bookshelf(const Database& db, const std::string& dir,
                     const std::string& design, bool use_gp_positions) {
    fs::create_directories(dir);
    const auto file = [&](const char* ext) {
        return (fs::path(dir) / (design + ext)).string();
    };
    const double site_w = db.floorplan().site_w_um();
    const double row_h = db.floorplan().site_h_um();

    {
        std::ofstream aux(file(".aux"));
        aux << "RowBasedPlacement : " << design << ".nodes " << design
            << ".nets " << design << ".pl " << design << ".scl\n";
        io_detail::close_written(aux, file(".aux"));
    }
    {
        std::ofstream nodes(file(".nodes"));
        nodes << "UCLA nodes 1.0\n";
        std::size_t terminals = 0;
        for (const Cell& c : db.cells()) {
            terminals += c.fixed() ? 1 : 0;
        }
        nodes << "NumNodes : " << db.num_cells() << "\n";
        nodes << "NumTerminals : " << terminals << "\n";
        for (const Cell& c : db.cells()) {
            nodes << c.name() << ' '
                  << static_cast<double>(c.width()) * site_w << ' '
                  << static_cast<double>(c.height()) * row_h
                  << (c.fixed() ? " terminal" : "") << "\n";
        }
        io_detail::close_written(nodes, file(".nodes"));
    }
    {
        std::ofstream pl(file(".pl"));
        pl << "UCLA pl 1.0\n";
        for (const Cell& c : db.cells()) {
            double x;
            double y;
            if (c.fixed() || (!use_gp_positions && c.placed())) {
                x = static_cast<double>(c.x());
                y = static_cast<double>(c.y());
            } else {
                x = c.gp_x();
                y = c.gp_y();
            }
            pl << c.name() << ' ' << x * site_w << ' ' << y * row_h
               << " : N" << (c.fixed() ? " /FIXED" : "") << "\n";
        }
        io_detail::close_written(pl, file(".pl"));
    }
    {
        std::ofstream nets(file(".nets"));
        nets << "UCLA nets 1.0\n";
        nets << "NumNets : " << db.nets().size() << "\n";
        nets << "NumPins : " << db.pins().size() << "\n";
        for (const Net& n : db.nets()) {
            nets << "NetDegree : " << n.degree() << ' ' << n.name() << "\n";
            for (const PinId pid : n.pins()) {
                const Pin& p = db.pin(pid);
                const Cell& c = db.cell(p.cell);
                const double dx =
                    (p.offset_x - static_cast<double>(c.width()) / 2.0) *
                    site_w;
                const double dy =
                    (p.offset_y - static_cast<double>(c.height()) / 2.0) *
                    row_h;
                nets << "  " << c.name() << " B : " << dx << ' ' << dy
                     << "\n";
            }
        }
        io_detail::close_written(nets, file(".nets"));
    }
    {
        std::ofstream scl(file(".scl"));
        scl << "UCLA scl 1.0\n";
        scl << "NumRows : " << db.floorplan().num_rows() << "\n";
        for (const Row& r : db.floorplan().rows()) {
            scl << "CoreRow Horizontal\n";
            scl << "  Coordinate : " << static_cast<double>(r.y) * row_h
                << "\n";
            scl << "  Height : " << row_h << "\n";
            scl << "  Sitewidth : " << site_w << "\n";
            scl << "  Sitespacing : " << site_w << "\n";
            scl << "  Siteorient : 1\n";
            scl << "  Sitesymmetry : 1\n";
            scl << "  SubrowOrigin : " << static_cast<double>(r.x) * site_w
                << "  NumSites : " << r.num_sites << "\n";
        scl << "End\n";
        }
        io_detail::close_written(scl, file(".scl"));
    }
}

}  // namespace mrlg
