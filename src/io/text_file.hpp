#pragma once
/// \file text_file.hpp
/// Below the grammar, the Bookshelf and LEF/DEF readers share one buffered
/// line walker and the error format `<file>:<line>: <what>`, and their
/// writers one write check. Private to bookshelf.cpp and lefdef.cpp.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

#include "io/parse.hpp"

namespace mrlg::io_detail {

namespace fs = std::filesystem;

inline bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

[[noreturn]] inline void fail_at(const std::string& path, std::size_t line,
                                 const std::string& what) {
    throw ParseError(path + ":" + std::to_string(line) + ": " + what);
}

/// One input file, read whole into a buffer sized from the file and
/// walked line by line in place. Tokens are views into the buffer, so no
/// line or token is copied. A stream of unknown size (a pipe) is read to
/// its end.
class InputFile {
public:
    explicit InputFile(const fs::path& path) : path_(path.string()) {
        std::error_code ec;
        const std::uintmax_t size = fs::file_size(path, ec);
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            throw ParseError("cannot open " + path_);
        }
        if (ec) {
            read_to_end(in);
            return;
        }
        buf_ = std::make_unique_for_overwrite<char[]>(size);
        in.read(buf_.get(), static_cast<std::streamsize>(size));
        size_ = static_cast<std::size_t>(in.gcount());
    }

    const std::string& path() const { return path_; }
    std::size_t line() const { return line_; }
    /// The current line, '#' comment cut.
    std::string_view text() const { return text_; }

    /// Advances to the next line that holds a token once its '#' comment
    /// is cut; false at the end of the file.
    bool next_line() {
        while (pos_ < size_) {
            const char* begin = buf_.get() + pos_;
            const void* nl = std::memchr(begin, '\n', size_ - pos_);
            const std::size_t len =
                nl != nullptr ? static_cast<const char*>(nl) - begin
                              : size_ - pos_;
            pos_ += len + 1;
            ++line_;
            text_ = std::string_view(begin, len);
            text_ = text_.substr(0, text_.find('#'));
            rest_ = text_;
            skip_space();
            if (!rest_.empty()) {
                return true;
            }
        }
        return false;
    }

    /// The current line's next whitespace-separated token; empty at its
    /// end.
    std::string_view token() {
        skip_space();
        std::size_t n = 0;
        while (n < rest_.size() && !is_space(rest_[n])) {
            ++n;
        }
        const std::string_view tok = rest_.substr(0, n);
        rest_.remove_prefix(n);
        return tok;
    }

    [[noreturn]] void fail(const std::string& what) const {
        fail_at(path_, line_, what);
    }

    double number(std::string_view tok) const {
        double v = 0;
        if (!parse_finite(tok, v)) {
            fail("bad number '" + std::string(tok) + "'");
        }
        return v;
    }

    /// An integer field: any number with no fractional part.
    double integer(std::string_view tok) const {
        const double v = number(tok);
        if (std::trunc(v) != v) {
            fail("bad integer '" + std::string(tok) + "'");
        }
        return v;
    }

    /// The count a "NumNodes : n" style header gives, as a pre-sizing hint
    /// only: 0 when it does not parse, and never more than the file's
    /// lines, since every node, net and pin has a line of its own.
    std::size_t count_hint() {
        std::string_view tok = token();
        if (tok == ":") {
            tok = token();
        }
        double n = 0;
        if (!parse_finite(tok, n) || n < 0) {
            return 0;
        }
        if (lines_ == 0) {
            lines_ = static_cast<std::size_t>(
                std::count(buf_.get(), buf_.get() + size_, '\n') + 1);
        }
        return static_cast<std::size_t>(
            std::min(n, static_cast<double>(lines_)));
    }

private:
    void skip_space() {
        std::size_t n = 0;
        while (n < rest_.size() && is_space(rest_[n])) {
            ++n;
        }
        rest_.remove_prefix(n);
    }

    /// Reads `in`, whose size is unknown, to its end.
    void read_to_end(std::ifstream& in) {
        std::string data;
        char chunk[1 << 16];
        while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
            data.append(chunk, static_cast<std::size_t>(in.gcount()));
        }
        if (in.bad()) {
            throw ParseError("cannot open " + path_);
        }
        size_ = data.size();
        buf_ = std::make_unique_for_overwrite<char[]>(size_);
        data.copy(buf_.get(), size_);
    }

    std::string path_;
    std::unique_ptr<char[]> buf_;
    std::size_t size_ = 0;
    std::size_t pos_ = 0;   ///< Start of the next line.
    std::size_t line_ = 0;  ///< 1-based number of the current line.
    std::size_t lines_ = 0;  ///< Lines in the file; counted on first use.
    std::string_view text_;
    std::string_view rest_;  ///< The current line's untokenized rest.
};

/// Closes `out`, the stream that wrote `path`, and throws
/// std::runtime_error naming `path` when opening or a write failed.
inline void close_written(std::ofstream& out, const std::string& path) {
    out.close();
    if (!out) {
        throw std::runtime_error("cannot write " + path);
    }
}

}  // namespace mrlg::io_detail
