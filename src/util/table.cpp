#include "util/table.hpp"

#include <algorithm>
#include <cctype>

#include "util/assert.hpp"

namespace mrlg {

namespace {
bool looks_numeric(const std::string& s) {
    if (s.empty()) {
        return false;
    }
    for (char c : s) {
        if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
            c != '-' && c != '+' && c != '%' && c != 'e' && c != 'E' &&
            c != 'x') {
            return false;
        }
    }
    return true;
}
}  // namespace

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
    MRLG_ASSERT(!header_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<std::string> cells) {
    MRLG_ASSERT(cells.size() == header_.size(),
                "row arity must match header");
    rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) {
        widths[c] = header_[c].size();
    }
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::size_t pad = widths[c] - row[c].size();
            if (looks_numeric(row[c])) {
                os << std::string(pad, ' ') << row[c];
            } else {
                os << row[c] << std::string(pad, ' ');
            }
            os << (c + 1 == row.size() ? "" : "  ");
        }
        os << '\n';
    };

    emit(header_);
    std::size_t total = 0;
    for (std::size_t w : widths) {
        total += w + 2;
    }
    os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto& row : rows_) {
        emit(row);
    }
}

}  // namespace mrlg
