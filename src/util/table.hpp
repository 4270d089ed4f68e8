#pragma once
/// \file table.hpp
/// Fixed-width ASCII table printer used by the bench harnesses to emit
/// Table-1-style result rows.

#include <ostream>
#include <string>
#include <vector>

namespace mrlg {

/// Column-aligned text table. Add a header once, then rows of equal arity;
/// print() right-aligns numeric-looking cells and left-aligns the rest.
class Table {
public:
    explicit Table(std::vector<std::string> header);

    void add_row(std::vector<std::string> cells);

    std::size_t num_rows() const { return rows_.size(); }

    /// Render to `os` with a separator line under the header.
    void print(std::ostream& os) const;

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

}  // namespace mrlg
