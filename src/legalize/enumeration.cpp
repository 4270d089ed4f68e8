#include "legalize/enumeration.hpp"

#include <algorithm>
#include <cstdlib>

#include "eval/legality.hpp"
#include "util/assert.hpp"

namespace mrlg {

namespace {

/// Multi-row cells only; single-row cells can never be straddled.
void multi_row_cells(const LocalProblem& lp, std::vector<int>& out) {
    out.clear();
    for (int i = 0; i < lp.num_cells(); ++i) {
        if (lp.cell(i).h > 1) {
            out.push_back(i);
        }
    }
}

/// True when gaps[j] (row t + j) leaves no multi-row cell straddled.
bool consistent_impl(const LocalProblem& lp, int t,
                     std::span<const int> gaps,
                     const std::vector<int>& multi_cells) {
    const int top = t + static_cast<int>(gaps.size());  // exclusive
    for (const int ci : multi_cells) {
        const LpCell& c = lp.cell(ci);
        const int c_lo = std::max(c.k0, t);
        const int c_hi = std::min(c.k0 + c.h, top);
        if (c_hi - c_lo < 2) {
            continue;  // spans < 2 combination rows — cannot be straddled
        }
        int side = 0;  // -1 left of gap, +1 right of gap
        for (int k = c_lo; k < c_hi; ++k) {
            const int pos = lp.pos_in_row(ci, k - c.k0);
            const int gap = gaps[static_cast<std::size_t>(k - t)];
            const int s = pos < gap ? -1 : 1;
            if (side == 0) {
                side = s;
            } else if (side != s) {
                return false;
            }
        }
    }
    return true;
}

bool base_row_ok(const LocalProblem& lp, int t, const TargetSpec& target,
                 const EnumerationOptions& opts) {
    if (t < 0 || t + target.h > lp.num_rows()) {
        return false;
    }
    for (int k = t; k < t + target.h; ++k) {
        if (!lp.has_row(k)) {
            return false;
        }
    }
    if (opts.check_rail &&
        !rail_compatible(lp.y0() + t, target.h, target.rail_phase)) {
        return false;
    }
    return true;
}

}  // namespace

bool insertion_point_consistent(const LocalProblem& lp,
                                const InsertionPoint& point) {
    std::vector<int> multi_cells;
    multi_row_cells(lp, multi_cells);
    return consistent_impl(lp, point.k0, point.gaps, multi_cells);
}

EnumerationResult enumerate_insertion_points(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts) {
    // Filled in per-thread buffers that keep their capacity across calls,
    // then returned as one exactly-sized copy.
    thread_local EnumerationScratch scratch;
    thread_local EnumerationResult filled;
    enumerate_insertion_points(lp, intervals, target, opts, scratch, filled);
    return filled;
}

void enumerate_insertion_points(const LocalProblem& lp,
                                const std::vector<InsertionInterval>& intervals,
                                const TargetSpec& target,
                                const EnumerationOptions& opts,
                                EnumerationScratch& s,
                                EnumerationResult& result) {
    using EvType = EnumerationScratch::EvType;
    using Event = EnumerationScratch::Event;
    result.points.clear();
    result.truncated = false;
    const int H = lp.num_rows();
    const int ht = static_cast<int>(target.h);
    MRLG_ASSERT(ht >= 1, "target height must be positive");
    if (H < ht) {
        return;
    }
    multi_row_cells(lp, s.multi_cells);
    const std::vector<int>& multi_cells = s.multi_cells;

    // Q[a][s]: open intervals of row s that may combine with row-a
    // intervals; only pairs with |a-s| <= ht-1 are ever touched, so each
    // row a owns a band of 2·ht - 1 queues.
    const int band = 2 * ht - 1;
    const auto num_queues = static_cast<std::size_t>(H * band);
    if (s.queues.size() < num_queues) {
        s.queues.resize(num_queues);
    }
    for (std::size_t i = 0; i < num_queues; ++i) {
        s.queues[i].clear();
    }
    const auto Q = [&](int a, int b) -> std::vector<int>& {
        return s.queues[static_cast<std::size_t>(a * band + (b - a) + ht - 1)];
    };

    std::vector<Event>& events = s.events;
    events.clear();
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const InsertionInterval& iv = intervals[i];
        events.push_back(
            Event{iv.lo, EvType::kLeft, static_cast<int>(i), iv.k});
        events.push_back(
            Event{iv.hi, EvType::kRight, static_cast<int>(i), iv.k});
    }
    // Clear events: one per (multi-row cell, row it occupies), at the
    // left edge of the gap immediately to the cell's right. Emitted for
    // every such gap — including gaps whose interval was discarded for
    // negative length, which still separate left from right.
    for (const int ci : multi_cells) {
        const LpCell& c = lp.cell(ci);
        for (SiteCoord j = 0; j < c.h; ++j) {
            events.push_back(Event{static_cast<SiteCoord>(c.xl + c.w),
                                   EvType::kClear, ci, c.k0 + j});
        }
    }

    std::sort(events.begin(), events.end(), [](const Event& a,
                                               const Event& b) {
        if (a.x != b.x) {
            return a.x < b.x;
        }
        if (a.type != b.type) {
            return static_cast<int>(a.type) < static_cast<int>(b.type);
        }
        return a.payload < b.payload;
    });

    // Recursive cartesian product over the ht-1 partner queues.
    std::vector<int>& combo_gaps = s.combo_gaps;
    combo_gaps.resize(static_cast<std::size_t>(ht));
    auto emit_products = [&](int a, const InsertionInterval& iv, int t,
                             auto&& self, int k, SiteCoord lo,
                             SiteCoord hi) -> void {
        if (result.truncated) {
            return;
        }
        if (k == t + ht) {
            if (lo <= hi &&
                consistent_impl(lp, t, combo_gaps, multi_cells)) {
                if (result.points.size() >= opts.max_points) {
                    result.truncated = true;
                    return;
                }
                InsertionPoint& p = result.points.emplace_back();
                p.k0 = t;
                p.gaps.assign(combo_gaps);
                p.lo = lo;
                p.hi = hi;
            }
            return;
        }
        if (k == a) {
            combo_gaps[static_cast<std::size_t>(k - t)] = iv.gap;
            self(a, iv, t, self, k + 1, lo, hi);
            return;
        }
        for (const int other_idx : Q(a, k)) {
            const InsertionInterval& ov =
                intervals[static_cast<std::size_t>(other_idx)];
            combo_gaps[static_cast<std::size_t>(k - t)] = ov.gap;
            self(a, iv, t, self, k + 1, std::max(lo, ov.lo),
                 std::min(hi, ov.hi));
            if (result.truncated) {
                return;
            }
        }
    };

    for (const Event& ev : events) {
        if (result.truncated) {
            break;
        }
        switch (ev.type) {
            case EvType::kClear: {
                // Rows further than ht - 1 apart never share a queue.
                const LpCell& c = lp.cell(ev.payload);
                for (SiteCoord j = 0; j < c.h; ++j) {
                    const int r = c.k0 + j;
                    if (r != ev.row && std::abs(r - ev.row) < ht) {
                        Q(ev.row, r).clear();
                    }
                }
                break;
            }
            case EvType::kLeft: {
                const InsertionInterval& iv =
                    intervals[static_cast<std::size_t>(ev.payload)];
                const int a = iv.k;
                for (int t = std::max(0, a - ht + 1);
                     t <= std::min(H - ht, a); ++t) {
                    if (!base_row_ok(lp, t, target, opts)) {
                        continue;
                    }
                    emit_products(a, iv, t, emit_products, t, iv.lo, iv.hi);
                }
                // Open this interval for later rows.
                for (int r = std::max(0, a - ht + 1);
                     r <= std::min(H - 1, a + ht - 1); ++r) {
                    if (r != a) {
                        Q(r, a).push_back(ev.payload);
                    }
                }
                break;
            }
            case EvType::kRight: {
                const int a = ev.row;
                for (int r = std::max(0, a - ht + 1);
                     r <= std::min(H - 1, a + ht - 1); ++r) {
                    if (r == a) {
                        continue;
                    }
                    std::vector<int>& q = Q(r, a);
                    q.erase(std::remove(q.begin(), q.end(), ev.payload),
                            q.end());
                }
                break;
            }
        }
    }
}

EnumerationResult naive_enumerate_insertion_points(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts) {
    EnumerationResult result;
    const int H = lp.num_rows();
    const int ht = static_cast<int>(target.h);
    if (H < ht) {
        return result;
    }
    std::vector<int> multi_cells;
    multi_row_cells(lp, multi_cells);

    // Bucket intervals per row.
    std::vector<std::vector<int>> per_row(static_cast<std::size_t>(H));
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        per_row[static_cast<std::size_t>(intervals[i].k)].push_back(
            static_cast<int>(i));
    }

    std::vector<int> combo(static_cast<std::size_t>(ht));
    for (int t = 0; t + ht <= H; ++t) {
        if (!base_row_ok(lp, t, target, opts)) {
            continue;
        }
        // Odometer over per_row[t..t+ht-1].
        bool any_empty = false;
        for (int k = t; k < t + ht; ++k) {
            if (per_row[static_cast<std::size_t>(k)].empty()) {
                any_empty = true;
            }
        }
        if (any_empty) {
            continue;
        }
        std::vector<std::size_t> odo(static_cast<std::size_t>(ht), 0);
        while (true) {
            SiteCoord lo = kSiteCoordMin;
            SiteCoord hi = kSiteCoordMax;
            InsertionPoint p;
            p.k0 = t;
            p.gaps.resize(static_cast<std::size_t>(ht));
            for (int j = 0; j < ht; ++j) {
                const int idx = per_row[static_cast<std::size_t>(t + j)]
                                       [odo[static_cast<std::size_t>(j)]];
                const InsertionInterval& iv =
                    intervals[static_cast<std::size_t>(idx)];
                lo = std::max(lo, iv.lo);
                hi = std::min(hi, iv.hi);
                p.gaps[static_cast<std::size_t>(j)] = iv.gap;
                combo[static_cast<std::size_t>(j)] = idx;
            }
            p.lo = lo;
            p.hi = hi;
            if (lo <= hi && consistent_impl(lp, p.k0, p.gaps, multi_cells)) {
                if (result.points.size() >= opts.max_points) {
                    result.truncated = true;
                    return result;
                }
                result.points.push_back(std::move(p));
            }
            // Advance odometer.
            int j = 0;
            for (; j < ht; ++j) {
                auto& d = odo[static_cast<std::size_t>(j)];
                if (++d < per_row[static_cast<std::size_t>(t + j)].size()) {
                    break;
                }
                d = 0;
            }
            if (j == ht) {
                break;
            }
        }
    }
    return result;
}

}  // namespace mrlg
