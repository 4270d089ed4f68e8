#include "dp/row_polish.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "dp/net_cache.hpp"
#include "util/assert.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

constexpr int kMaxPasses = 2;
/// Accept a segment's new placement only if it improves total HPWL by at
/// least this much (um).
constexpr double kMinGainUm = 1e-9;

/// L1 isotonic regression by pool-adjacent-violators with block medians.
/// Returns non-decreasing y minimizing Σ|y_i - q_i|.
std::vector<double> pava_l1(const std::vector<double>& q) {
    struct Block {
        std::vector<double> values;
        double median;
        double med() {
            const auto mid =
                values.begin() +
                static_cast<std::ptrdiff_t>(values.size() / 2);
            std::nth_element(values.begin(), mid, values.end());
            return *mid;
        }
    };
    std::vector<Block> blocks;
    for (const double v : q) {
        blocks.push_back(Block{{v}, v});
        blocks.back().median = blocks.back().med();
        while (blocks.size() > 1 &&
               blocks[blocks.size() - 2].median >
                   blocks.back().median) {
            Block last = std::move(blocks.back());
            blocks.pop_back();
            Block& prev = blocks.back();
            prev.values.insert(prev.values.end(), last.values.begin(),
                               last.values.end());
            prev.median = prev.med();
        }
    }
    std::vector<double> y;
    y.reserve(q.size());
    for (Block& b : blocks) {
        for (std::size_t i = 0; i < b.values.size(); ++i) {
            y.push_back(b.median);
        }
    }
    return y;
}

/// Median x of the pins connected to `c` through its nets (excluding its
/// own pins); nullopt when unconnected.
std::optional<double> preferred_x(const Database& db, CellId c) {
    std::vector<double> xs;
    for (const PinId pid : db.cell_pins(c)) {
        for (const PinId qid : db.net_pins(db.pin(pid).net)) {
            const Pin& q = db.pin(qid);
            if (q.cell == c) {
                continue;
            }
            xs.push_back(static_cast<double>(db.cell(q.cell).x()) +
                         q.offset_x);
        }
    }
    if (xs.empty()) {
        return std::nullopt;
    }
    const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
    std::nth_element(xs.begin(), mid, xs.end());
    return *mid;
}

}  // namespace

std::vector<SiteCoord> solve_fixed_order_row(
    const std::vector<SiteCoord>& widths, Span span,
    const std::vector<double>& pref) {
    MRLG_ASSERT(widths.size() == pref.size(), "arity mismatch");
    const std::size_t n = widths.size();
    std::vector<SiteCoord> out(n);
    if (n == 0) {
        return out;
    }
    // Substitute y_i = x_i - prefix_width_i: ordering+abutment becomes
    // y non-decreasing; the span becomes y ∈ [span.lo, span.hi - Σw].
    SiteCoord total_w = 0;
    std::vector<double> q(n);
    {
        SiteCoord prefix = 0;
        for (std::size_t i = 0; i < n; ++i) {
            q[i] = pref[i] - static_cast<double>(prefix);
            prefix += widths[i];
        }
        total_w = prefix;
    }
    MRLG_ASSERT(span.length() >= total_w, "cells exceed the segment");
    const double lo = static_cast<double>(span.lo);
    const double hi = static_cast<double>(span.hi - total_w);

    std::vector<double> y = pava_l1(q);
    SiteCoord prefix = 0;
    SiteCoord prev_end = span.lo;
    for (std::size_t i = 0; i < n; ++i) {
        // Clamp into the global band (preserves monotonicity and, for
        // convex losses, optimality), then round to sites left-to-right
        // without re-introducing overlap.
        const double yc = std::clamp(y[i], lo, hi);
        SiteCoord x = static_cast<SiteCoord>(
            std::lround(yc + static_cast<double>(prefix)));
        x = std::max(x, prev_end);
        x = std::min(x, static_cast<SiteCoord>(
                            span.hi - (total_w - prefix)));
        out[i] = x;
        prev_end = x + widths[i];
        prefix += widths[i];
    }
    return out;
}

RowPolishStats row_polish(Database& db, SegmentGrid& grid) {
    GridWriteScope grid_write;
    RowPolishStats stats;
    NetHpwlCache cache(db);
    stats.hpwl_before_um = cache.total();
    stats.segments_total = grid.num_segments();

    for (int pass = 0; pass < kMaxPasses; ++pass) {
        stats.passes = pass + 1;
        std::size_t accepted_this_pass = 0;
        for (const Segment& seg : grid.segments()) {
            if (seg.cells.empty()) {
                continue;
            }
            const bool has_multi_row =
                std::any_of(seg.cells.begin(), seg.cells.end(),
                            [](const SegmentSlot& sl) { return sl.h > 1; });
            if (has_multi_row) {
                if (pass == 0) {
                    ++stats.segments_skipped_multirow;
                }
                continue;
            }
            if (pass == 0) {
                ++stats.segments_polished;
            }

            std::vector<SiteCoord> widths;
            std::vector<double> pref;
            widths.reserve(seg.cells.size());
            for (const SegmentSlot& sl : seg.cells) {
                widths.push_back(sl.w);
                const auto p = preferred_x(db, sl.id);
                pref.push_back(p ? *p : static_cast<double>(sl.x));
            }
            const std::vector<SiteCoord> new_x =
                solve_fixed_order_row(widths, seg.span, pref);

            // Trial-commit and measure the exact delta on affected nets.
            // The fixed-order solution keeps the list's order, as shift
            // requires.
            std::vector<std::pair<CellId, SiteCoord>> moves;
            std::vector<std::pair<CellId, SiteCoord>> undo;
            for (std::size_t i = 0; i < seg.cells.size(); ++i) {
                if (new_x[i] != seg.cells[i].x) {
                    moves.emplace_back(seg.cells[i].id, new_x[i]);
                    undo.emplace_back(seg.cells[i].id, seg.cells[i].x);
                }
            }
            if (moves.empty()) {
                continue;
            }
            grid.shift(db, moves);
            // Sorted: the float fold below decides accept/reject, so its
            // order must not depend on hash layout.
            std::vector<NetId> nets;
            for (const SegmentSlot& sl : seg.cells) {
                for (const PinId pid : db.cell_pins(sl.id)) {
                    nets.push_back(db.pin(pid).net);
                }
            }
            std::sort(nets.begin(), nets.end());
            nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
            double delta = 0.0;
            for (const NetId n : nets) {
                delta += cache.net_hpwl(n) - cache.cached(n);
            }
            if (delta <= -kMinGainUm) {
                for (const NetId n : nets) {
                    cache.refresh(n);
                }
                ++stats.segments_accepted;
                ++accepted_this_pass;
            } else {
                grid.shift(db, undo);
            }
        }
        if (accepted_this_pass == 0) {
            break;
        }
    }
    stats.hpwl_after_um = cache.total();
    return stats;
}

}  // namespace mrlg
