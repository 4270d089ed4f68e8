#pragma once
/// \file geometry.hpp
/// Integer geometry primitives used throughout mrlg. All legalization-side
/// coordinates are in placement-site units (see DESIGN.md §5): x counts site
/// widths, y counts rows (= site heights).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>

#include "util/assert.hpp"

namespace mrlg {

/// Site-unit coordinate. Signed: window corners may fall left of the die.
using SiteCoord = std::int32_t;
/// Database-unit coordinate (e.g. nanometres) used for HPWL reporting.
using DbuCoord = std::int64_t;

inline constexpr SiteCoord kSiteCoordMin =
    std::numeric_limits<SiteCoord>::min() / 4;
inline constexpr SiteCoord kSiteCoordMax =
    std::numeric_limits<SiteCoord>::max() / 4;

/// 2-D point in site units.
struct Point {
    SiteCoord x = 0;
    SiteCoord y = 0;

    friend constexpr bool operator==(const Point&, const Point&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const Point& p) {
    return os << '(' << p.x << ',' << p.y << ')';
}

/// Half-open 1-D interval [lo, hi). Empty when hi <= lo.
struct Span {
    SiteCoord lo = 0;
    SiteCoord hi = 0;

    constexpr SiteCoord length() const { return hi - lo; }
    constexpr bool empty() const { return hi <= lo; }
    constexpr bool contains(SiteCoord x) const { return x >= lo && x < hi; }
    /// Whole-interval containment (other may be empty).
    constexpr bool contains(const Span& other) const {
        return other.lo >= lo && other.hi <= hi;
    }
    constexpr bool overlaps(const Span& other) const {
        return lo < other.hi && other.lo < hi;
    }

    friend constexpr bool operator==(const Span&, const Span&) = default;
};

constexpr Span intersect(const Span& a, const Span& b) {
    return Span{std::max(a.lo, b.lo), std::min(a.hi, b.hi)};
}

inline std::ostream& operator<<(std::ostream& os, const Span& s) {
    return os << '[' << s.lo << ',' << s.hi << ')';
}

/// Axis-aligned rectangle, half-open in both axes: [x, x+w) × [y, y+h).
struct Rect {
    SiteCoord x = 0;
    SiteCoord y = 0;
    SiteCoord w = 0;
    SiteCoord h = 0;

    constexpr SiteCoord x_hi() const { return x + w; }
    constexpr SiteCoord y_hi() const { return y + h; }
    constexpr Span x_span() const { return Span{x, x + w}; }
    constexpr Span y_span() const { return Span{y, y + h}; }
    constexpr bool empty() const { return w <= 0 || h <= 0; }
    constexpr std::int64_t area() const {
        return static_cast<std::int64_t>(w) * static_cast<std::int64_t>(h);
    }
    constexpr bool contains(const Point& p) const {
        return x_span().contains(p.x) && y_span().contains(p.y);
    }
    constexpr bool contains(const Rect& o) const {
        return x_span().contains(o.x_span()) && y_span().contains(o.y_span());
    }
    constexpr bool overlaps(const Rect& o) const {
        return x_span().overlaps(o.x_span()) && y_span().overlaps(o.y_span());
    }
    /// Centre ×2 (kept integral; compare centre distances without division).
    constexpr Point center2() const {
        return Point{static_cast<SiteCoord>(2 * x + w),
                     static_cast<SiteCoord>(2 * y + h)};
    }

    friend constexpr bool operator==(const Rect&, const Rect&) = default;
};

constexpr Rect intersect(const Rect& a, const Rect& b) {
    const Span xs = intersect(a.x_span(), b.x_span());
    const Span ys = intersect(a.y_span(), b.y_span());
    if (xs.empty() || ys.empty()) {
        return Rect{};
    }
    return Rect{xs.lo, ys.lo, xs.length(), ys.length()};
}

inline std::ostream& operator<<(std::ostream& os, const Rect& r) {
    return os << "Rect{" << r.x << ',' << r.y << " " << r.w << 'x' << r.h
              << '}';
}

}  // namespace mrlg
