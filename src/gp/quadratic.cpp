#include "gp/quadratic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "gp/cg.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "db/write_cap.hpp"

namespace mrlg::gp {

namespace {

constexpr int kCgMaxIters = 200;          ///< PCG iterations per solve.
constexpr double kAnchorWeight0 = 0.02;  ///< Spreading anchor weight, round 1.
constexpr double kAnchorGrowth = 1.35;   ///< Multiplied each round.
constexpr double kBinRows = 4.0;         ///< Spreading bin height in rows.
constexpr std::uint64_t kSeed = 7;       ///< Scatter of cells with gp (0, 0).

struct PinPos {
    int cell_idx;   ///< Movable index, or -1 for fixed.
    double pos;     ///< Pin coordinate in the current dimension.
    double offset;  ///< Pin offset from cell origin in this dimension.
};

/// Adds a B2B connection between two pins of one net.
void connect(SpdMatrix& a, std::vector<double>& b, const PinPos& p,
             const PinPos& q, double w) {
    if (p.cell_idx < 0 && q.cell_idx < 0) {
        return;
    }
    if (p.cell_idx >= 0 && q.cell_idx >= 0) {
        if (p.cell_idx == q.cell_idx) {
            return;  // two pins of the same cell — rigid, no force
        }
        const auto i = static_cast<std::size_t>(p.cell_idx);
        const auto j = static_cast<std::size_t>(q.cell_idx);
        a.add_diag(i, w);
        a.add_diag(j, w);
        a.add_offdiag(i, j, -w);
        b[i] += w * (q.offset - p.offset);
        b[j] += w * (p.offset - q.offset);
        return;
    }
    const PinPos& mov = p.cell_idx >= 0 ? p : q;
    const PinPos& fix = p.cell_idx >= 0 ? q : p;
    const auto i = static_cast<std::size_t>(mov.cell_idx);
    a.add_diag(i, w);
    b[i] += w * (fix.pos - mov.offset);
}

}  // namespace

QuadraticStats quadratic_place(Database& db, int iterations) {
    GridWriteScope grid_write;
    MRLG_OBS_PHASE("gp.place");
    QuadraticStats stats;
    const Rect die = db.floorplan().die();
    const double die_x0 = static_cast<double>(die.x);
    const double die_x1 = static_cast<double>(die.x_hi());
    const double die_y0 = 0.0;
    const double die_y1 = static_cast<double>(db.floorplan().num_rows());

    // Movable index mapping.
    const std::vector<CellId> movable = db.movable_cells();
    const std::size_t n = movable.size();
    if (n == 0) {
        return stats;
    }
    std::vector<int> idx_of(db.num_cells(), -1);
    for (std::size_t i = 0; i < n; ++i) {
        idx_of[movable[i].index()] = static_cast<int>(i);
    }

    // Current positions (cell origins).
    std::vector<double> x(n);
    std::vector<double> y(n);
    Rng rng(kSeed);
    for (std::size_t i = 0; i < n; ++i) {
        const Cell& c = db.cell(movable[i]);
        // Start from existing gp if sensible, else a centre-biased scatter.
        if (c.gp_x() != 0.0 || c.gp_y() != 0.0) {
            x[i] = c.gp_x();
            y[i] = c.gp_y();
        } else {
            x[i] = die_x0 + (0.3 + 0.4 * rng.uniform01()) * (die_x1 - die_x0);
            y[i] = die_y0 + (0.3 + 0.4 * rng.uniform01()) * (die_y1 - die_y0);
        }
    }

    // Spreading targets via 1-D area-CDF flattening: map each coordinate so
    // that cell area is uniform along the axis, then blend with the current
    // position. Cheap, stable, good enough to de-cluster a quadratic
    // solution.
    const double bin_w = std::max(4.0, kBinRows *
                                           db.floorplan().site_h_um() /
                                           db.floorplan().site_w_um());
    auto flatten_targets = [&](const std::vector<double>& pos, double lo,
                               double hi, std::vector<double>& target,
                               double blend) {
        const int nbins = std::max(
            4, static_cast<int>((hi - lo) / bin_w));
        std::vector<double> area(static_cast<std::size_t>(nbins), 0.0);
        auto bin_of = [&](double v) {
            int bi = static_cast<int>((v - lo) / (hi - lo) *
                                      static_cast<double>(nbins));
            return std::clamp(bi, 0, nbins - 1);
        };
        for (std::size_t i = 0; i < n; ++i) {
            const Cell& c = db.cell(movable[i]);
            area[static_cast<std::size_t>(bin_of(pos[i]))] +=
                static_cast<double>(c.width()) *
                static_cast<double>(c.height());
        }
        std::vector<double> cdf(static_cast<std::size_t>(nbins) + 1, 0.0);
        for (int bi = 0; bi < nbins; ++bi) {
            cdf[static_cast<std::size_t>(bi) + 1] =
                cdf[static_cast<std::size_t>(bi)] +
                area[static_cast<std::size_t>(bi)];
        }
        const double total = std::max(cdf.back(), 1e-9);
        target.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            const int bi = bin_of(pos[i]);
            const double within =
                (pos[i] - (lo + (hi - lo) * bi / nbins)) /
                ((hi - lo) / nbins);
            const double cum =
                (cdf[static_cast<std::size_t>(bi)] +
                 std::clamp(within, 0.0, 1.0) *
                     area[static_cast<std::size_t>(bi)]) /
                total;
            const double flat = lo + cum * (hi - lo);
            target[i] = blend * flat + (1.0 - blend) * pos[i];
        }
    };

    double anchor_w = kAnchorWeight0;
    for (int iter = 0; iter < iterations; ++iter) {
        MRLG_OBS_PHASE("gp.iteration");
        MRLG_OBS_COUNT("gp.iterations", 1);
        for (int dim = 0; dim < 2; ++dim) {
            std::vector<double>& pos = dim == 0 ? x : y;
            const double lo = dim == 0 ? die_x0 : die_y0;
            const double hi = dim == 0 ? die_x1 : die_y1;

            SpdMatrix a(n);
            std::vector<double> b(n, 0.0);

            // B2B net model at current positions.
            for (const Net& net : db.nets()) {
                if (net.degree() < 2) {
                    continue;
                }
                std::vector<PinPos> pins;
                pins.reserve(net.degree());
                for (const PinId pid : net.pins()) {
                    const Pin& pin = db.pin(pid);
                    const Cell& c = db.cell(pin.cell);
                    const double off =
                        dim == 0 ? pin.offset_x : pin.offset_y;
                    double base;
                    const int mi = c.fixed() ? -1 : idx_of[pin.cell.index()];
                    if (mi >= 0) {
                        base = pos[static_cast<std::size_t>(mi)];
                    } else {
                        base = dim == 0 ? static_cast<double>(c.x())
                                        : static_cast<double>(c.y());
                    }
                    pins.push_back(PinPos{mi, base + off, off});
                }
                std::size_t lo_i = 0;
                std::size_t hi_i = 0;
                for (std::size_t i = 1; i < pins.size(); ++i) {
                    if (pins[i].pos < pins[lo_i].pos) {
                        lo_i = i;
                    }
                    if (pins[i].pos > pins[hi_i].pos) {
                        hi_i = i;
                    }
                }
                if (lo_i == hi_i) {
                    hi_i = (lo_i + 1) % pins.size();
                }
                const double k = static_cast<double>(pins.size());
                for (std::size_t i = 0; i < pins.size(); ++i) {
                    for (const std::size_t bnd : {lo_i, hi_i}) {
                        if (i == bnd) {
                            continue;
                        }
                        if (i < bnd && i == (bnd == lo_i ? hi_i : lo_i)) {
                            // boundary-boundary pair handled once below
                        }
                        const double d =
                            std::max(std::abs(pins[i].pos - pins[bnd].pos),
                                     0.5);
                        connect(a, b, pins[i], pins[bnd],
                                2.0 / ((k - 1.0) * d));
                    }
                }
            }

            // Spreading anchors (also regularize the system).
            std::vector<double> target;
            const double blend = std::min(0.7, 0.25 + 0.05 * iter);
            flatten_targets(pos, lo, hi, target, iter == 0 ? 0.0 : blend);
            for (std::size_t i = 0; i < n; ++i) {
                a.add_diag(i, anchor_w);
                b[i] += anchor_w * target[i];
            }

            a.finalize();
            solve_pcg(a, b, pos, kCgMaxIters);
            for (std::size_t i = 0; i < n; ++i) {
                const Cell& c = db.cell(movable[i]);
                const double extent =
                    dim == 0 ? static_cast<double>(c.width())
                             : static_cast<double>(c.height());
                pos[i] = std::clamp(pos[i], lo, hi - extent);
            }
        }
        anchor_w *= kAnchorGrowth;
        stats.iterations_run = iter + 1;
    }

    // Commit and measure.
    for (std::size_t i = 0; i < n; ++i) {
        db.cell(movable[i]).set_gp(x[i], y[i]);
    }
    // Max bin utilization (reporting only).
    {
        const int nb = 16;
        std::vector<double> area(static_cast<std::size_t>(nb * nb), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            const Cell& c = db.cell(movable[i]);
            const int bx = std::clamp(
                static_cast<int>((x[i] - die_x0) / (die_x1 - die_x0) * nb),
                0, nb - 1);
            const int by = std::clamp(
                static_cast<int>((y[i] - die_y0) / (die_y1 - die_y0) * nb),
                0, nb - 1);
            area[static_cast<std::size_t>(by * nb + bx)] +=
                static_cast<double>(c.width()) *
                static_cast<double>(c.height());
        }
        const double bin_cap = (die_x1 - die_x0) * (die_y1 - die_y0) /
                               static_cast<double>(nb * nb);
        for (const double v : area) {
            stats.final_max_util = std::max(stats.final_max_util,
                                            v / bin_cap);
        }
    }
    // HPWL of the produced GP (microns).
    {
        const double sw = db.floorplan().site_w_um();
        const double sh = db.floorplan().site_h_um();
        double total = 0.0;
        for (const Net& net : db.nets()) {
            if (net.degree() < 2) {
                continue;
            }
            double xl = std::numeric_limits<double>::max();
            double xh = std::numeric_limits<double>::lowest();
            double yl = xl;
            double yh = xh;
            for (const PinId pid : net.pins()) {
                const Pin& pin = db.pin(pid);
                const Cell& c = db.cell(pin.cell);
                const double px =
                    (c.fixed() ? static_cast<double>(c.x()) : c.gp_x()) +
                    pin.offset_x;
                const double py =
                    (c.fixed() ? static_cast<double>(c.y()) : c.gp_y()) +
                    pin.offset_y;
                xl = std::min(xl, px);
                xh = std::max(xh, px);
                yl = std::min(yl, py);
                yh = std::max(yh, py);
            }
            total += (xh - xl) * sw + (yh - yl) * sh;
        }
        stats.hpwl_um = total;
    }
    return stats;
}

}  // namespace mrlg::gp
