#pragma once
/// \file timer.hpp
/// Wall-clock stopwatch for experiment runtime reporting (Table 1 "Runtime").

#include <chrono>

namespace mrlg {

class Timer {
public:
    Timer() : start_(Clock::now()) {}

    /// Seconds elapsed since construction.
    double elapsed_s() const {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

}  // namespace mrlg
