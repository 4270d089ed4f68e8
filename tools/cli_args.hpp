#pragma once
/// \file cli_args.hpp
/// The strict command-line parser of mrlg_legalize, mrlg_fuzz, bench_paper
/// and bench_parallel: every argument must be a known switch, or a known
/// flag and its value, and a number must parse whole; MRLG_THREADS, when
/// set, must be a whole number >= 1. Anything else prints what is wrong
/// and the tool's usage, and exits 2.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

#include "io/parse.hpp"
#include "util/thread_pool.hpp"

namespace mrlg::cli {

class Args {
public:
    /// Parses argv[1..argc): each of `switches` stands alone, each of
    /// `valued` takes the argument after it. With `positional`, a first
    /// argument that does not start with '-' (a design path) is allowed.
    /// Then checks MRLG_THREADS (ThreadPool::default_threads).
    Args(int argc, char** argv, const char* usage,
         std::initializer_list<std::string_view> switches,
         std::initializer_list<std::string_view> valued,
         bool positional = false)
        : usage_(usage) {
        const auto known = [](auto set, std::string_view arg) {
            return std::find(set.begin(), set.end(), arg) != set.end();
        };
        int i = 1;
        if (positional && argc > 1 && argv[1][0] != '-') {
            positional_ = argv[i++];
        }
        for (; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (known(switches, arg)) {
                values_.emplace(arg, "");
            } else if (!known(valued, arg)) {
                fail("unknown argument '" + std::string(arg) + "'");
            } else if (i + 1 == argc) {
                fail(std::string(arg) + " needs a value");
            } else {
                values_.emplace(arg, argv[++i]);  // the first one counts
            }
        }
        // Every thread count of 0 resolves through MRLG_THREADS: a bad
        // value is a usage error now, not a throw mid-run.
        try {
            static_cast<void>(ThreadPool::default_threads());
        } catch (const std::invalid_argument& e) {
            fail(e.what());
        }
    }

    const char* positional() const { return positional_; }
    bool has(std::string_view flag) const { return values_.contains(flag); }
    /// The value given to `flag`; `fallback` when it is absent.
    const char* get(std::string_view flag,
                    const char* fallback = nullptr) const {
        const auto it = values_.find(flag);
        return it == values_.end() ? fallback : it->second;
    }

    /// The value of `flag` as a finite number, `fallback` when absent.
    double number(std::string_view flag, double fallback) const {
        const char* s = get(flag);
        double v = fallback;
        if (s != nullptr && !parse_finite(s, v)) {
            fail(std::string(flag) + " needs a number, got '" + s + "'");
        }
        return v;
    }

    /// The value of `flag` as a whole number ≥ 0 that fits T (a count or
    /// a seed), `fallback` when absent.
    template <typename T>
    T count(std::string_view flag, T fallback) const {
        const char* s = get(flag);
        return s != nullptr ? count_of<T>(s, flag) : fallback;
    }

    /// `text`, which `what` names, as a whole number ≥ 0 that fits T.
    template <typename T>
    T count_of(std::string_view text, std::string_view what) const {
        std::uint64_t v = 0;
        const char* end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (ec != std::errc{} || ptr != end ||
            v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
            fail(std::string(what) + " needs a whole number >= 0, got '" +
                 std::string(text) + "'");
        }
        return static_cast<T>(v);
    }

    /// Prints `what` and the usage, and exits 2.
    [[noreturn]] void fail(const std::string& what) const {
        std::cerr << what << "\n" << usage_;
        std::exit(2);
    }

private:
    const char* usage_;
    const char* positional_ = nullptr;
    std::map<std::string_view, const char*, std::less<>> values_;
};

}  // namespace mrlg::cli
