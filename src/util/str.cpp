#include "util/str.hpp"

#include <cctype>
#include <cstdio>

namespace mrlg {

std::vector<std::string_view> split(std::string_view s, char delim) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool iequals(std::string_view a, std::string_view b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::tolower(static_cast<unsigned char>(a[i])) !=
            std::tolower(static_cast<unsigned char>(b[i]))) {
            return false;
        }
    }
    return true;
}

std::string format_fixed(double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

std::string format_si(double value) {
    const char* suffix = "";
    double v = value;
    if (v >= 1e9) {
        v /= 1e9;
        suffix = "G";
    } else if (v >= 1e6) {
        v /= 1e6;
        suffix = "M";
    } else if (v >= 1e3) {
        v /= 1e3;
        suffix = "k";
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f%s", v, suffix);
    return buf;
}

}  // namespace mrlg
