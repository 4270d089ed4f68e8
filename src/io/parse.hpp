#pragma once
/// \file parse.hpp
/// What the Bookshelf and LEF/DEF readers share: the error they throw on
/// malformed input, the whole-token number parse, and the range checks
/// that keep every size and position they load inside the legalizer's
/// coordinate range. Inline, so each reader's hot loop inlines them.

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "util/geometry.hpp"

namespace mrlg {

class ParseError : public std::runtime_error {
public:
    explicit ParseError(const std::string& msg) : std::runtime_error(msg) {}
};

/// Parses the whole of `tok` as a finite double. std::from_chars rounds
/// correctly, as strtod does, so the value is bit-equal to strtod's. It
/// takes no leading '+', so one is stripped first; hex, "inf" and "nan"
/// are refused.
inline bool parse_finite(std::string_view tok, double& out) {
    if (tok.starts_with('+')) {
        tok.remove_prefix(1);
        if (tok.starts_with('-')) {
            return false;
        }
    }
    const char* end = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
    return ec == std::errc{} && ptr == end && std::isfinite(out);
}

/// True when [lo, lo + extent] lies strictly inside the coordinate range
/// the legalizer keeps below its ±∞ sentinels (kSiteCoordMin/Max), so any
/// edge it computes fits SiteCoord. False for NaN.
inline bool fits_coord(double lo, double extent) {
    return lo > kSiteCoordMin && lo + extent < kSiteCoordMax;
}

/// A size in sites or rows that rounds to at least 1 and fits SiteCoord.
inline bool fits_size(double v) {
    return std::round(v) >= 1 && v < kSiteCoordMax;
}

}  // namespace mrlg
