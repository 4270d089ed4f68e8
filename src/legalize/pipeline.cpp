#include "legalize/pipeline.hpp"

#include <algorithm>

namespace mrlg {

void FootprintLedger::reset(std::size_t num_rows, Span x_extent) {
    x_extent_ = x_extent;
    num_rows_ = num_rows;
    const std::size_t extent =
        x_extent.hi > x_extent.lo
            ? static_cast<std::size_t>(x_extent.hi - x_extent.lo)
            : 0;
    buckets_per_row_ = (extent + static_cast<std::size_t>(kBucketSites) - 1) /
                       static_cast<std::size_t>(kBucketSites);
    levels_.assign(num_rows_ * buckets_per_row_, 0);
}

std::uint32_t FootprintLedger::claim(const AttemptFootprint& fp) {
    const SiteCoord row_lo = std::max<SiteCoord>(fp.rows.lo, 0);
    const SiteCoord row_hi = std::min<SiteCoord>(
        fp.rows.hi, static_cast<SiteCoord>(num_rows_));
    const SiteCoord x_lo = std::max(fp.x.lo, x_extent_.lo);
    const SiteCoord x_hi = std::min(fp.x.hi, x_extent_.hi);
    if (row_lo >= row_hi || x_lo >= x_hi) {
        return 1;
    }
    // Buckets touched by [x_lo, x_hi), rounded outward (conservative).
    const std::size_t b_lo =
        static_cast<std::size_t>(x_lo - x_extent_.lo) /
        static_cast<std::size_t>(kBucketSites);
    const std::size_t b_hi =
        (static_cast<std::size_t>(x_hi - x_extent_.lo) +
         static_cast<std::size_t>(kBucketSites) - 1) /
        static_cast<std::size_t>(kBucketSites);
    std::uint32_t* const first =
        levels_.data() + static_cast<std::size_t>(row_lo) * buckets_per_row_;
    const std::size_t rows = static_cast<std::size_t>(row_hi - row_lo);
    std::uint32_t level = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::uint32_t* row = first + r * buckets_per_row_;
        level = std::max(level, *std::max_element(row + b_lo, row + b_hi));
    }
    ++level;
    for (std::size_t r = 0; r < rows; ++r) {
        std::uint32_t* row = first + r * buckets_per_row_;
        std::fill(row + b_lo, row + b_hi, level);
    }
    return level;
}

}  // namespace mrlg
