#pragma once
/// \file greedy.hpp
/// Greedy ("Tetris"-style, Hill [7]) mixed-size legalizer baseline: cells
/// are processed once in a chosen order and snapped to the nearest free
/// legal position; *placed cells never move*. The paper's introduction
/// argues this class of legalizers suffers high displacement at high
/// design density — bench_baselines quantifies that claim against MLL.

#include <cstdint>
#include <optional>

#include "db/database.hpp"
#include "db/segment.hpp"

namespace mrlg {

struct GreedyOptions {
    bool check_rail = true;
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
std::optional<Point> find_nearest_free_position(const Database& db,
                                                const SegmentGrid& grid,
                                                CellId cell, double px,
                                                double py, bool check_rail);

}  // namespace mrlg
