#pragma once
/// \file str.hpp
/// Small string helpers shared by the Bookshelf parser and report printers.

#include <string>
#include <string_view>
#include <vector>

namespace mrlg {

/// Split on a single delimiter character; keeps empty fields.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Case-insensitive equality (ASCII).
bool iequals(std::string_view a, std::string_view b);

/// Format a double with `digits` decimals (locale-independent).
std::string format_fixed(double value, int digits);

}  // namespace mrlg
