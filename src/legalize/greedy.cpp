#include "legalize/greedy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "eval/legality.hpp"
#include "util/timer.hpp"
#include "db/write_cap.hpp"

namespace mrlg {

namespace {

/// One row's blocked spans in x order, read outward from a start site in
/// one direction: the holes between its segments (unbounded before the
/// first segment and after the last), whole segments of another fence
/// region, and the slots of the target region's segments. The spans of a
/// row never overlap, so lo order is hi order. A walk stops before it
/// reads past an unbounded end hole.
class BlockedSpans {
public:
    BlockedSpans(const SegmentGrid& grid, SiteCoord y, int region)
        : grid_(&grid), segs_(grid.row_segments(y)), region_(region) {}

    /// Positions on the first span with hi > s, for step_right.
    void start_right(SiteCoord s) {
        k_ = static_cast<int>(
            std::partition_point(segs_.begin(), segs_.end(),
                                 [&](SegmentId id) {
                                     return grid_->segment(id).span.hi <= s;
                                 }) -
            segs_.begin());
        j_ = -1;
        if (k_ < num_segs() && seg(k_).span.lo <= s) {
            j_ = 0;  // s inside segment k_: its first span ending past s
            if (seg(k_).region == region_) {
                const auto& cells = seg(k_).cells;
                j_ = static_cast<int>(
                    std::partition_point(cells.begin(), cells.end(),
                                         [&](const SegmentSlot& c) {
                                             return c.x_hi() <= s;
                                         }) -
                    cells.begin());
            }
        }
        settle_right();
    }

    /// Positions on the last span with lo < s, for step_left.
    void start_left(SiteCoord s) {
        const int k = static_cast<int>(
            std::partition_point(segs_.begin(), segs_.end(),
                                 [&](SegmentId id) {
                                     return grid_->segment(id).span.lo < s;
                                 }) -
            segs_.begin()) - 1;
        k_ = k + 1;
        j_ = -1;  // the hole after segment k
        if (k >= 0 && seg(k).span.hi >= s) {
            k_ = k;  // s inside or at the end of segment k: its last span
            j_ = body_size(k) - 1;
            if (seg(k).region == region_) {
                const auto& cells = seg(k).cells;
                j_ = static_cast<int>(
                    std::partition_point(cells.begin(), cells.end(),
                                         [&](const SegmentSlot& c) {
                                             return c.x < s;
                                         }) -
                    cells.begin()) - 1;
            }
        }
        settle_left();
    }

    const Span& span() const { return span_; }

    void step_right() {
        if (k_ < num_segs()) {
            ++j_;
            settle_right();
        }
    }
    void step_left() {
        if (k_ > 0 || j_ > -1) {
            --j_;
            settle_left();
        }
    }

private:
    int num_segs() const { return static_cast<int>(segs_.size()); }
    const Segment& seg(int k) const {
        return grid_->segment(segs_[static_cast<std::size_t>(k)]);
    }
    /// Spans in segment k after its leading hole.
    int body_size(int k) const {
        return seg(k).region == region_ ? static_cast<int>(seg(k).cells.size())
                                        : 1;
    }
    /// Span j of segment k; j = -1 is the hole before it (k = num_segs():
    /// the hole after the last segment).
    Span at(int k, int j) const {
        if (j < 0) {
            return Span{k == 0 ? kSiteCoordMin : seg(k - 1).span.hi,
                        k == num_segs() ? kSiteCoordMax : seg(k).span.lo};
        }
        if (seg(k).region != region_) {
            return seg(k).span;  // another region's sites are a wall
        }
        const SegmentSlot& c = seg(k).cells[static_cast<std::size_t>(j)];
        return Span{c.x, c.x_hi()};
    }
    /// Moves forward from (k_, j_) to the first non-empty span.
    void settle_right() {
        for (;;) {
            if (k_ < num_segs() && j_ == body_size(k_)) {
                ++k_;
                j_ = -1;
                continue;
            }
            span_ = at(k_, j_);
            if (!span_.empty()) {
                return;
            }
            ++j_;
        }
    }
    /// Moves back from (k_, j_) to the first non-empty span.
    void settle_left() {
        for (;;) {
            if (j_ < -1) {
                --k_;
                j_ = body_size(k_) - 1;
                continue;
            }
            span_ = at(k_, j_);
            if (!span_.empty()) {
                return;
            }
            --j_;
        }
    }

    const SegmentGrid* grid_;
    std::span<const SegmentId> segs_;
    int region_;
    int k_ = 0;
    int j_ = -1;
    Span span_;
};

/// What one search looks for, and the per-thread streams it walks with
/// (one per covered row and direction), which keep their capacity.
struct FreeSlotQuery {
    SiteCoord w = 0;
    SiteCoord h = 0;
    int region = 0;
    double px = 0.0;
    double sw = 0.0;
    std::vector<BlockedSpans>& right;
    std::vector<BlockedSpans>& left;
};

/// Nearest feasible x to px for the query's footprint with bottom row y,
/// among those that could still cost less than `best_cost` (y_cost is
/// the row's share); nullopt if none. Free runs are the gaps between the
/// covered rows' blocked spans, merged in x order, inside the
/// intersection of the rows' extents. The run holding s = floor(px) is
/// read first; then the walk goes right and then left from it, nearest
/// run first, and takes the first run that fits on each side. A side
/// stops once its next run's distance cannot beat the row's best
/// (smallest |x − px|, the left one first) or, through the same cost
/// expression as the caller's comparison, the best cost.
std::optional<SiteCoord> nearest_x_outward(const Floorplan& fp,
                                           const SegmentGrid& grid,
                                           FreeSlotQuery& q, SiteCoord y,
                                           double y_cost, double best_cost) {
    SiteCoord x_lo = kSiteCoordMin;
    SiteCoord x_hi = kSiteCoordMax;
    for (SiteCoord r = y; r < y + q.h; ++r) {
        const Row& row = fp.row(r);
        x_lo = std::max(x_lo, row.x);
        x_hi = std::min(x_hi, static_cast<SiteCoord>(row.x + row.num_sites));
    }
    if (x_hi - x_lo < q.w) {
        return std::nullopt;
    }
    const double px = q.px;
    const SiteCoord s = static_cast<SiteCoord>(
        std::clamp(std::floor(px), static_cast<double>(x_lo),
                   static_cast<double>(x_hi - 1)));
    q.right.clear();
    q.left.clear();
    for (SiteCoord r = y; r < y + q.h; ++r) {
        q.right.emplace_back(grid, r, q.region).start_right(s);
        q.left.emplace_back(grid, r, q.region).start_left(s);
    }
    const auto distance = [&](SiteCoord x) {
        return std::abs(static_cast<double>(x) - px);
    };
    const auto costs_too_much = [&](double d) {
        return y_cost + d * q.sw >= best_cost;
    };

    std::optional<SiteCoord> best;
    double best_d = std::numeric_limits<double>::max();
    // The run holding s, when s is free on every covered row: the
    // intersection of the rows' runs around s. Its x is px rounded into
    // the run.
    SiteCoord right_from = s;
    SiteCoord left_from = s;
    if (std::all_of(q.right.begin(), q.right.end(),
                    [&](const BlockedSpans& b) { return b.span().lo > s; })) {
        right_from = x_hi;
        left_from = x_lo;
        for (std::size_t i = 0; i < q.right.size(); ++i) {
            right_from = std::min(right_from, q.right[i].span().lo);
            left_from = std::max(left_from, q.left[i].span().hi);
        }
        if (right_from - left_from >= q.w) {
            const SiteCoord last = right_from - q.w;
            const double xc = std::clamp(px, static_cast<double>(left_from),
                                         static_cast<double>(last));
            best = std::clamp<SiteCoord>(
                static_cast<SiteCoord>(std::lround(xc)), left_from, last);
            best_d = distance(*best);
        }
    }

    // Rightward: every run from here on starts at the cursor or later, at
    // a site > px, and its x is its start, so the first that fits is this
    // side's best. It must be strictly nearer: the best so far lies left.
    for (SiteCoord cursor = right_from; cursor < x_hi;) {
        if (static_cast<double>(cursor) > px &&
            (distance(cursor) >= best_d ||
             costs_too_much(distance(cursor)))) {
            break;
        }
        BlockedSpans& next = *std::min_element(
            q.right.begin(), q.right.end(),
            [](const BlockedSpans& a, const BlockedSpans& b) {
                return a.span().lo < b.span().lo;
            });
        const Span b = next.span();
        next.step_right();
        if (std::min(b.lo, x_hi) - cursor >= q.w) {
            best = cursor;
            best_d = distance(cursor);
            break;
        }
        cursor = std::max(cursor, b.hi);
    }
    // Leftward: every run from here on ends at the cursor or earlier, and
    // its x is its end minus w, < px, so again the first that fits is
    // this side's best. An equal distance wins: it lies further left.
    for (SiteCoord cursor = left_from; cursor > x_lo;) {
        if (distance(cursor - q.w) > best_d ||
            costs_too_much(distance(cursor - q.w))) {
            break;
        }
        BlockedSpans& next = *std::max_element(
            q.left.begin(), q.left.end(),
            [](const BlockedSpans& a, const BlockedSpans& b) {
                return a.span().hi < b.span().hi;
            });
        const Span b = next.span();
        next.step_left();
        if (cursor - std::max(b.hi, x_lo) >= q.w) {
            best = cursor - q.w;
            best_d = distance(*best);
            break;
        }
        cursor = std::min(cursor, b.lo);
    }
    return best;
}

}  // namespace

OutwardRows::OutwardRows(SiteCoord num_rows, SiteCoord height, double py,
                         bool check_rail, RailPhase phase)
    : height_(height),
      max_y_(num_rows - height),
      py_(py),
      check_rail_(check_rail),
      phase_(phase) {
    // A footprint taller than the die (max_y_ < 0) gets no row.
    down_ = static_cast<SiteCoord>(
        std::clamp(std::floor(py), -1.0,
                   std::max(-1.0, static_cast<double>(max_y_))));
    up_ = down_ + 1;
}

bool OutwardRows::usable(SiteCoord y) const {
    return !check_rail_ || rail_compatible(y, height_, phase_);
}

std::optional<SiteCoord> OutwardRows::next() {
    while (down_ >= 0 && !usable(down_)) {
        --down_;
    }
    while (up_ <= max_y_ && !usable(up_)) {
        ++up_;
    }
    const bool has_down = down_ >= 0;
    const bool has_up = up_ <= max_y_;
    if (has_down &&
        (!has_up || std::abs(static_cast<double>(down_) - py_) <=
                        std::abs(static_cast<double>(up_) - py_))) {
        return down_--;
    }
    if (has_up) {
        return up_++;
    }
    return std::nullopt;
}

std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell_id, double px,
                                                double py, bool check_rail) {
    const Cell& cell = db.cell(cell_id);
    const Floorplan& fp = db.floorplan();
    const double sw = fp.site_w_um();
    const double sh = fp.site_h_um();
    thread_local std::vector<BlockedSpans> right;
    thread_local std::vector<BlockedSpans> left;
    FreeSlotQuery q{cell.width(), cell.height(), cell.region(), px, sw,
                    right, left};

    double best_cost = std::numeric_limits<double>::max();
    std::optional<Point> best;
    OutwardRows rows(fp.num_rows(), cell.height(), py, check_rail,
                     cell.rail_phase());
    while (const std::optional<SiteCoord> y = rows.next()) {
        const double y_cost = std::abs(static_cast<double>(*y) - py) * sh;
        if (y_cost >= best_cost) {
            break;  // rows come by |dy|; nothing further can win
        }
        const auto x = nearest_x_outward(fp, grid, q, *y, y_cost, best_cost);
        if (!x) {
            continue;
        }
        const double cost =
            y_cost + std::abs(static_cast<double>(*x) - px) * sw;
        if (cost < best_cost) {
            best_cost = cost;
            best = Point{*x, *y};
        }
    }
    return best;
}

GreedyStats greedy_legalize(Database& db, SegmentGrid& grid,
                            const GreedyOptions& opts) {
    GridWriteScope grid_write;
    Timer timer;
    GreedyStats stats;
    std::vector<CellId> order = db.movable_cells();
    stats.num_cells = order.size();
    switch (opts.order) {
        case GreedyOptions::Order::kLeftToRight:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 return db.cell(a).gp_x() < db.cell(b).gp_x();
                             });
            break;
        case GreedyOptions::Order::kAreaDescending:
            std::stable_sort(order.begin(), order.end(),
                             [&](CellId a, CellId b) {
                                 const auto& ca = db.cell(a);
                                 const auto& cb = db.cell(b);
                                 return ca.width() * ca.height() >
                                        cb.width() * cb.height();
                             });
            break;
    }

    for (const CellId c : order) {
        if (db.cell(c).placed()) {
            grid.remove(db, c);
        }
    }

    for (const CellId c : order) {
        const Cell& cell = db.cell(c);
        const auto best = find_nearest_free_position(
            db, grid, c, cell.gp_x(), cell.gp_y(), /*check_rail=*/true);
        if (best) {
            grid.place(db, c, best->x, best->y);
        } else {
            ++stats.unplaced;
        }
    }
    stats.success = stats.unplaced == 0;
    stats.runtime_s = timer.elapsed_s();
    return stats;
}

}  // namespace mrlg
