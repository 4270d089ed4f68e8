#pragma once
/// \file greedy.hpp
/// Greedy ("Tetris"-style, Hill [7]) mixed-size legalizer baseline: cells
/// are processed once in a chosen order and snapped to the nearest free
/// legal position; *placed cells never move*. The paper's introduction
/// argues this class of legalizers suffers high displacement at high
/// design density — bench_paper's `baselines` experiment quantifies that
/// claim against MLL.

#include <cstdint>
#include <optional>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

/// Options of greedy_legalize. It always honours the power-rail parity.
struct GreedyOptions {
    enum class Order {
        kLeftToRight,    ///< Classic Tetris order (by gp x).
        kAreaDescending, ///< Big cells first — helps multi-row cells fit.
    };
    Order order = Order::kLeftToRight;
};

struct GreedyStats {
    bool success = false;
    std::size_t num_cells = 0;
    std::size_t unplaced = 0;
    double runtime_s = 0.0;
};

/// Legalizes every movable cell greedily. Cells that fit nowhere remain
/// unplaced (success = false).
GreedyStats greedy_legalize(Database& db, SegmentGrid& grid,
                            const GreedyOptions& opts = {});

/// Nearest completely free legal position for `cell` around the preferred
/// fractional position, without moving any placed cell (the greedy
/// baseline's inner search). Returns nullopt when no free slot exists.
/// Also used by the full legalizer as a deterministic fallback when the
/// randomized retry rounds of Algorithm 1 keep missing the remaining free
/// space on very dense designs.
///
/// The cost is |x − px|·site_w + |y − py|·site_h. Rows come from
/// OutwardRows; within a row the search walks the free runs outward from
/// px and stops on each side once no run there can beat the row's best
/// or the best cost so far (DESIGN.md §2h). Ties go to the lower row,
/// then within a row to the smallest |x − px|, the left one first: the
/// answer of a scan over every free run of every row.
std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell, double px,
                                                double py, bool check_rail);

/// The bottom rows a footprint of `height` rows can take on a die of
/// `num_rows` rows, in ascending |y − py|, the lower row first on a tie.
/// With `check_rail`, rows whose power-rail parity does not suit `phase`
/// are skipped. The free-slot search and rip-up read their candidate rows
/// from it.
class OutwardRows {
public:
    OutwardRows(SiteCoord num_rows, SiteCoord height, double py,
                bool check_rail, RailPhase phase);

    /// The next row, or nullopt once every row has been given.
    std::optional<SiteCoord> next();

private:
    bool usable(SiteCoord y) const;

    SiteCoord height_;
    SiteCoord max_y_;
    double py_;
    bool check_rail_;
    RailPhase phase_;
    SiteCoord down_;  ///< Next row at or below py (< 0: none left).
    SiteCoord up_;    ///< Next row above it (> max_y_: none left).
};

}  // namespace mrlg
