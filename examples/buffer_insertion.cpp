/// buffer_insertion — the paper's second incremental scenario (§1): a
/// timing tool inserts buffers on long nets; every new buffer must be
/// legalized locally at the net's midpoint without perturbing the design.
/// Finds the longest nets, drops a buffer at each net's bounding-box
/// centre via MLL, splits the net, and verifies legality plus the HPWL
/// effect.

#include <algorithm>
#include <iostream>
#include <span>
#include <stdexcept>

#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"

int main() try {
    using namespace mrlg;

    GenProfile profile;
    profile.name = "buffer_insertion_demo";
    profile.num_single = 6000;
    profile.num_double = 600;
    profile.density = 0.75;
    GenResult gen = generate_benchmark(profile);
    Database& db = gen.db;
    SegmentGrid grid = SegmentGrid::build(db);
    if (!legalize_placement(db, grid).success) {
        std::cerr << "initial legalization failed\n";
        return 1;
    }

    // Rank nets by legalized HPWL and buffer the 100 longest.
    struct NetLen {
        NetId id;
        double len;
        double cx;
        double cy;
    };
    std::vector<NetLen> lens;
    const double sw = db.floorplan().site_w_um();
    const double sh = db.floorplan().site_h_um();
    for (std::size_t i = 0; i < db.nets().size(); ++i) {
        const NetId id{static_cast<NetId::underlying>(i)};
        const std::span<const PinId> pins = db.net_pins(id);
        if (pins.size() < 2) {
            continue;
        }
        double xl = 1e18;
        double xh = -1e18;
        double yl = 1e18;
        double yh = -1e18;
        for (const PinId pid : pins) {
            const Pin& p = db.pin(pid);
            const Cell& c = db.cell(p.cell);
            xl = std::min(xl, c.x() + p.offset_x);
            xh = std::max(xh, c.x() + p.offset_x);
            yl = std::min(yl, c.y() + p.offset_y);
            yh = std::max(yh, c.y() + p.offset_y);
        }
        lens.push_back(NetLen{id, (xh - xl) * sw + (yh - yl) * sh,
                              (xl + xh) / 2, (yl + yh) / 2});
    }
    std::sort(lens.begin(), lens.end(),
              [](const NetLen& a, const NetLen& b) { return a.len > b.len; });

    int inserted = 0;
    int failed = 0;
    double total_offset_sites = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(100, lens.size());
         ++i) {
        const NetLen& n = lens[i];
        const CellId buf = db.add_cell(
            Cell("buf" + std::to_string(i), 2, 1, RailPhase::kEven));
        db.cell(buf).set_gp(n.cx, n.cy);
        const MllPlan r = mll_place(db, grid, buf, n.cx, n.cy);
        if (!r.success()) {
            ++failed;
            continue;
        }
        ++inserted;
        total_offset_sites += std::abs(r.x - n.cx) +
                              std::abs(r.y - n.cy) * sh / sw;
        // Hook the buffer into the net (models the repeater tap).
        db.add_pin(buf, n.id, 1.0, 0.5);
    }
    db.finalize_pins();  // the HPWL below reads the buffers' pins

    LegalityOptions lopts;
    const LegalityReport rep = check_legality(db, grid, lopts);
    std::cout << "inserted " << inserted << " buffers (" << failed
              << " failed)\n"
              << "placement legal: " << (rep.legal ? "yes" : "NO") << "\n"
              << "avg buffer offset from net centre: "
              << (inserted > 0
                      ? total_offset_sites / static_cast<double>(inserted)
                      : 0.0)
              << " sites\n"
              << "post-insertion HPWL: "
              << hpwl_m(db, PositionSource::kLegalized) << " m\n";
    return rep.legal && failed == 0 ? 0 : 1;
} catch (const std::invalid_argument& e) {
    // A malformed MRLG_THREADS or MRLG_VALIDATE: exit 2, as the tools do.
    std::cerr << e.what() << '\n';
    return 2;
}
