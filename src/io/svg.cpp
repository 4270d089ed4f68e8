#include "io/svg.hpp"

#include <fstream>

namespace mrlg {

namespace {

constexpr double kPxPerSite = 4.0;
constexpr double kPxPerRow = 14.0;

/// Fill colour per row height (colour-blind-safe-ish qualitative set).
const char* height_color(SiteCoord h) {
    switch (h) {
        case 1: return "#7eb0d5";
        case 2: return "#fd7f6f";
        case 3: return "#b2e061";
        case 4: return "#bd7ebe";
        default: return "#ffb55a";
    }
}

}  // namespace

bool write_svg(const Database& db, const std::string& path,
               const SvgOptions& opts) {
    if (db.num_cells() > opts.max_cells) {
        return false;
    }
    const Floorplan& fp = db.floorplan();
    const Rect die = fp.die();
    const double sx = kPxPerSite;
    const double sy = kPxPerRow;
    const double width = (die.w + 2) * sx;
    const double height = (die.h + 2) * sy;
    // SVG y grows downward; flip so row 0 is at the bottom.
    auto X = [&](double x) { return (x - die.x + 1) * sx; };
    auto Y = [&](double y_top) { return (die.y_hi() + 1 - y_top) * sy; };

    std::ofstream out(path);
    if (!out) {
        return false;
    }
    out << "<svg xmlns='http://www.w3.org/2000/svg' width='" << width
        << "' height='" << height << "'>\n";
    out << "<rect x='0' y='0' width='" << width << "' height='" << height
        << "' fill='#fafafa'/>\n";

    // Rows.
    for (const Row& r : fp.rows()) {
        out << "<rect x='" << X(r.x) << "' y='" << Y(r.y + 1) << "' width='"
            << r.num_sites * sx << "' height='" << sy
            << "' fill='none' stroke='#dddddd' stroke-width='0.5'/>\n";
    }
    // Fence regions (tinted background + boundary).
    for (const Floorplan::Fence& f : fp.fences()) {
        out << "<rect x='" << X(f.rect.x) << "' y='" << Y(f.rect.y_hi())
            << "' width='" << f.rect.w * sx << "' height='"
            << f.rect.h * sy
            << "' fill='#ffe9b3' fill-opacity='0.5' stroke='#cc8800' "
               "stroke-width='1' stroke-dasharray='4,2'/>\n";
    }
    // Blockages.
    for (const Rect& b : fp.blockages()) {
        out << "<rect x='" << X(b.x) << "' y='" << Y(b.y_hi())
            << "' width='" << b.w * sx << "' height='" << b.h * sy
            << "' fill='#999999' fill-opacity='0.6'/>\n";
    }
    // Cells.
    for (const Cell& c : db.cells()) {
        if (c.fixed()) {
            continue;  // already drawn as blockage when frozen
        }
        if (c.placed()) {
            out << "<rect x='" << X(c.x()) << "' y='"
                << Y(c.y() + c.height()) << "' width='" << c.width() * sx
                << "' height='" << c.height() * sy << "' fill='"
                << height_color(c.height())
                << "' fill-opacity='0.85' stroke='#555555' "
                   "stroke-width='0.4'/>\n";
            if (opts.draw_gp_arrows) {
                out << "<line x1='" << X(c.gp_x() + c.width() / 2.0)
                    << "' y1='" << Y(c.gp_y() + c.height() / 2.0)
                    << "' x2='" << X(c.x() + c.width() / 2.0) << "' y2='"
                    << Y(c.y() + c.height() / 2.0)
                    << "' stroke='#cc3333' stroke-width='0.6' "
                       "stroke-opacity='0.5'/>\n";
            }
        } else {
            out << "<rect x='" << X(c.gp_x()) << "' y='"
                << Y(c.gp_y() + c.height()) << "' width='"
                << c.width() * sx << "' height='" << c.height() * sy
                << "' fill='none' stroke='" << height_color(c.height())
                << "' stroke-width='0.8' stroke-dasharray='2,1'/>\n";
        }
        if (opts.label_cells) {
            const double lx = c.placed() ? c.x() : c.gp_x();
            const double ly = c.placed() ? c.y() : c.gp_y();
            out << "<text x='" << X(lx + 0.2) << "' y='" << Y(ly) - 2
                << "' font-size='" << sy * 0.5 << "' fill='#333333'>"
                << c.name() << "</text>\n";
        }
    }
    out << "</svg>\n";
    return true;
}

}  // namespace mrlg
