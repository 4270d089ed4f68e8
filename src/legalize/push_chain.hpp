#pragma once
/// \file push_chain.hpp
/// The push chains of one insertion point (DESIGN.md §2e). The target
/// pushes a local cell left only through a chain of post-insertion right
/// neighbours that starts at the gap, and right only through a chain of
/// left neighbours. Each step goes from a cell to its neighbour in a row
/// list, and local cells are indexed in x order (local_problem.hpp), so a
/// push-left step lands on a smaller index and a push-right step on a
/// larger one. Exact critical positions (evaluation.cpp) and realization
/// (realization.cpp) therefore seed a PushMarks with the gap's neighbours
/// and visit only marked cells, in descending index order for push-left
/// and ascending for push-right; each visit finalizes its cell from the
/// neighbours already visited and marks the neighbours it can push.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "legalize/enumeration.hpp"
#include "legalize/local_problem.hpp"
#include "util/assert.hpp"

namespace mrlg {

/// The local cells a push-chain sweep still has to visit, one bit per
/// cell. A sweep clears each bit it visits, so a finished sweep leaves the
/// set empty.
class PushMarks {
public:
    /// Empties the set and sizes it for local cells 0..n-1.
    void reset(int n) {
        words_.assign(static_cast<std::size_t>((n + 63) / 64), 0);
    }
    void mark(int i) {
        words_[static_cast<std::size_t>(i) / 64] |= std::uint64_t{1}
                                                    << (i % 64);
    }

    /// Visits every marked cell in descending index order, cells that
    /// `visit` marks included; `visit` may mark only cells below the one
    /// it is given.
    template <class Visit>
    void sweep_descending(Visit&& visit) {
        for (std::size_t w = words_.size(); w-- > 0;) {
            while (words_[w] != 0) {
                const int b = 63 - std::countl_zero(words_[w]);
                words_[w] &= ~(std::uint64_t{1} << b);
                visit(static_cast<int>(w * 64) + b);
            }
        }
    }
    /// The same in ascending order; `visit` may mark only cells above
    /// the one it is given.
    template <class Visit>
    void sweep_ascending(Visit&& visit) {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            while (words_[w] != 0) {
                const int b = std::countr_zero(words_[w]);
                words_[w] &= words_[w] - 1;
                visit(static_cast<int>(w * 64) + b);
            }
        }
    }

private:
    std::vector<std::uint64_t> words_;
};

/// The gap `point` puts on local row k, or -1 off its rows: pos == gap
/// holds exactly for the cell right after the target on row k, and
/// pos + 1 == gap for the cell right before it.
inline int gap_on_row(const InsertionPoint& point, int k) {
    const int j = k - point.k0;
    return j >= 0 && j < static_cast<int>(point.gaps.size())
               ? point.gaps[static_cast<std::size_t>(j)]
               : -1;
}

/// Marks the gap's neighbours on every row of `point`: the cell before
/// each gap (left) or the one after it (right), where the row has one.
inline void mark_gap_neighbours(const LocalProblem& lp,
                                const InsertionPoint& point, bool left,
                                PushMarks& marks) {
    marks.reset(lp.num_cells());
    for (std::size_t j = 0; j < point.gaps.size(); ++j) {
        const std::span<const int> cells =
            lp.row(point.k0 + static_cast<int>(j)).cells;
        const int gap = point.gaps[j];
        MRLG_ASSERT(gap >= 0 && gap <= static_cast<int>(cells.size()),
                    "insertion point gap outside its row");
        if (left && gap > 0) {
            marks.mark(cells[static_cast<std::size_t>(gap - 1)]);
        } else if (!left && gap < static_cast<int>(cells.size())) {
            marks.mark(cells[static_cast<std::size_t>(gap)]);
        }
    }
}

}  // namespace mrlg
