#pragma once
/// \file enumeration.hpp
/// Valid insertion-point enumeration (paper §5.1.2–5.1.3).
///
/// An insertion point is one gap per row for h_t vertically consecutive
/// rows, such that a common target x exists (common cutline) and no
/// multi-row local cell is straddled (intervals on opposite sides of a
/// multi-row cell cannot combine — Fig. 8).
///
/// The scanline algorithm sorts interval endpoints; a queue Q[a][s] holds
/// the currently-open intervals of row s that row-a intervals may combine
/// with. Processing a left endpoint of interval I on row a emits
/// {I} × Π_s Q[a][s] for every window of h_t consecutive rows containing a
/// (Eq. (2)); gaps whose left cell is a multi-row cell clear the queues
/// Q[a][s] for every row s that cell occupies.

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "legalize/insertion_interval.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/target.hpp"
#include "util/annotations.hpp"

namespace mrlg {

/// The gap indices of one insertion point, one per combination row.
/// Targets of up to kInline rows (every cell height the benchmark
/// libraries use) keep them inline, so enumerating a point allocates
/// nothing; taller targets spill to `spill_`.
class GapList {
public:
    static constexpr std::size_t kInline = 4;

    GapList() = default;
    GapList(std::initializer_list<int> gaps) {
        assign(std::span<const int>(gaps.begin(), gaps.size()));
    }

    void assign(std::span<const int> gaps) {
        resize(gaps.size());
        std::copy(gaps.begin(), gaps.end(), begin());
    }
    /// Sets the size. Values are not kept across the inline/spill
    /// boundary; callers overwrite every slot.
    void resize(std::size_t n) {
        size_ = static_cast<std::uint32_t>(n);
        if (n > kInline) {
            spill_.resize(n);
        }
    }

    std::size_t size() const { return size_; }
    int* data() { return size_ <= kInline ? inline_.data() : spill_.data(); }
    const int* data() const {
        return size_ <= kInline ? inline_.data() : spill_.data();
    }
    int* begin() { return data(); }
    int* end() { return data() + size_; }
    const int* begin() const { return data(); }
    const int* end() const { return data() + size_; }
    int& operator[](std::size_t j) { return data()[j]; }
    int operator[](std::size_t j) const { return data()[j]; }

    friend bool operator==(const GapList& a, const GapList& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

private:
    std::array<int, kInline> inline_{};
    std::vector<int> spill_;
    std::uint32_t size_ = 0;
};

struct InsertionPoint {
    int k0 = 0;        ///< Bottom local row index.
    GapList gaps;      ///< Gap index for rows k0 .. k0+h_t-1.
    SiteCoord lo = 0;  ///< Feasible target x range (inclusive).
    SiteCoord hi = 0;

    friend bool operator==(const InsertionPoint&,
                           const InsertionPoint&) = default;
};

struct EnumerationOptions {
    /// Enforce power-rail parity on the target's bottom row.
    bool check_rail = true;
    /// Safety cap; enumeration stops (truncated=true) past this.
    std::size_t max_points = 1u << 20;
};

struct EnumerationResult {
    std::vector<InsertionPoint> points;
    bool truncated = false;
};

/// Reusable buffers of the scanline (one enumeration per MLL attempt): the
/// multi-row cell list, the sorted endpoint events, the Q queues and the
/// combination being built. A default-constructed scratch is always valid.
struct EnumerationScratch {
    enum class EvType : int { kClear = 0, kLeft = 1, kRight = 2 };
    struct Event {
        SiteCoord x;
        EvType type;
        int payload;  ///< interval index, or cell index for kClear
        int row;      ///< row a owning the event (kClear: the gap's row)
    };
    std::vector<int> multi_cells;
    std::vector<Event> events;
    /// Q[a][s] for |a - s| < h_t, row-major by a: (2·h_t - 1) per row.
    std::vector<std::vector<int>> queues;
    std::vector<int> combo_gaps;
};

/// Scanline enumeration — O(#points) after sorting the endpoints.
MRLG_EFFECT_READONLY
EnumerationResult enumerate_insertion_points(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts = {});
/// In-place variant refilling `out`, reusing its capacity and `scratch`'s.
MRLG_EFFECT_READONLY
void enumerate_insertion_points(const LocalProblem& lp,
                                const std::vector<InsertionInterval>& intervals,
                                const TargetSpec& target,
                                const EnumerationOptions& opts,
                                EnumerationScratch& scratch,
                                EnumerationResult& out);

/// Reference implementation: all interval combinations per base row,
/// filtered. Exponential in the worst case; used by tests and the
/// enumeration ablation bench (§5.1.3 "computationally impractical").
EnumerationResult naive_enumerate_insertion_points(
    const LocalProblem& lp, const std::vector<InsertionInterval>& intervals,
    const TargetSpec& target, const EnumerationOptions& opts = {});

/// True when no multi-row local cell lies on different sides of the chosen
/// gaps in different rows of the combination.
bool insertion_point_consistent(const LocalProblem& lp,
                                const InsertionPoint& point);

}  // namespace mrlg
