#pragma once
/// \file trace.hpp
/// Deterministic tracing/metrics: hierarchical phase timers, monotonic
/// counters, and log2-bucket histograms, all owned by a Tracer that
/// serializes into the run report (obs/run_report.hpp).
///
/// Activation model: instrumented code calls the MRLG_OBS_* macros, which
/// consult an ambient "current tracer" pointer. With no tracer installed
/// (the default) every macro is a single pointer load and branch, so
/// production hot paths pay nothing measurable.
///
/// Determinism contract: a Tracer is single-threaded by design. Instrument
/// only from the orchestrating thread — worker-pool lambdas must never
/// touch the tracer. That is what makes tick-clock reports bit-identical
/// across `num_threads` values: the sequence of clock reads and metric
/// updates depends only on the (deterministic) serial execution path,
/// never on scheduling.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"

namespace mrlg::obs {

/// One node of the phase tree. Children are ordered by first entry, so the
/// serialized tree is deterministic.
struct PhaseNode {
    std::string name;
    std::uint64_t total_ns = 0;
    std::uint64_t calls = 0;
    std::vector<std::unique_ptr<PhaseNode>> children;

    /// Find-or-create a child (linear scan; phase fan-out is small).
    PhaseNode* child(std::string_view child_name);
};

class Tracer {
public:
    /// `clock` must outlive the tracer; nullptr = own wall clock.
    explicit Tracer(Clock* clock = nullptr);
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    void phase_begin(std::string_view name);
    void phase_end();
    void count(std::string_view name, std::uint64_t n = 1);
    void observe(std::string_view name, double v);

    /// Phase-tree root (name "run"; its total covers begin-to-serialize).
    const PhaseNode& root() const { return root_; }
    /// Counter value, 0 when the counter was never touched.
    std::uint64_t counter(std::string_view name) const;
    /// Histogram, nullptr when never observed.
    const Histogram* histogram(std::string_view name) const;
    const char* clock_kind() const { return clock_->kind(); }
    bool deterministic() const;

    /// Serializes phases/counters/histograms (the "metrics" sub-object of
    /// the run report). Closes the root span as a side effect.
    Json to_json();

private:
    WallClock default_clock_;
    Clock* clock_;
    PhaseNode root_;
    /// Open spans: (node, begin timestamp). stack_[0] is the root.
    std::vector<std::pair<PhaseNode*, std::uint64_t>> stack_;
    std::map<std::string, std::uint64_t, std::less<>> counters_;
    std::map<std::string, Histogram, std::less<>> hists_;
};

/// Ambient tracer consulted by the MRLG_OBS_* macros; nullptr = tracing
/// disabled (the default).
Tracer* current_tracer();
void set_current_tracer(Tracer* tracer);

/// RAII install/restore of the ambient tracer.
class ScopedTracer {
public:
    explicit ScopedTracer(Tracer& tracer) : prev_(current_tracer()) {
        set_current_tracer(&tracer);
    }
    ~ScopedTracer() { set_current_tracer(prev_); }
    ScopedTracer(const ScopedTracer&) = delete;
    ScopedTracer& operator=(const ScopedTracer&) = delete;

private:
    Tracer* prev_;
};

/// RAII suppression of the ambient tracer. The tracer is deliberately a
/// plain (non-thread_local) global, so instrumented code running on
/// worker-pool threads would race on it and break the single-threaded
/// Tracer. Parallel phases that execute instrumented code on workers (the
/// legalizer's region-parallel plan phase) install a pause around the
/// fan-out — on every thread-count, including 1, so the emitted metrics
/// stay independent of the configuration — and the orchestrator re-emits
/// the aggregated counters afterwards.
class TracerPause {
public:
    TracerPause() : prev_(current_tracer()) { set_current_tracer(nullptr); }
    ~TracerPause() { set_current_tracer(prev_); }
    TracerPause(const TracerPause&) = delete;
    TracerPause& operator=(const TracerPause&) = delete;

private:
    Tracer* prev_;
};

/// RAII phase span against the ambient tracer. Captures the tracer at
/// construction so a span stays balanced even if the ambient pointer
/// changes inside the scope.
class ScopedPhase {
public:
    explicit ScopedPhase(std::string_view name) : tracer_(current_tracer()) {
        if (tracer_ != nullptr) {
            tracer_->phase_begin(name);
        }
    }
    ~ScopedPhase() {
        if (tracer_ != nullptr) {
            tracer_->phase_end();
        }
    }
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;

private:
    Tracer* tracer_;
};

}  // namespace mrlg::obs

#define MRLG_OBS_CONCAT_IMPL(a, b) a##b
#define MRLG_OBS_CONCAT(a, b) MRLG_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope as a phase (nested under the innermost open
/// phase of the ambient tracer).
#define MRLG_OBS_PHASE(name) \
    ::mrlg::obs::ScopedPhase MRLG_OBS_CONCAT(mrlg_obs_phase_, __LINE__)(name)

/// Adds `n` to the named monotonic counter.
#define MRLG_OBS_COUNT(name, n)                                             \
    do {                                                                    \
        if (::mrlg::obs::Tracer* mrlg_obs_t = ::mrlg::obs::current_tracer();\
            mrlg_obs_t != nullptr) {                                        \
            mrlg_obs_t->count((name), static_cast<std::uint64_t>(n));       \
        }                                                                   \
    } while (false)

/// Records `v` into the named histogram.
#define MRLG_OBS_OBSERVE(name, v)                                           \
    do {                                                                    \
        if (::mrlg::obs::Tracer* mrlg_obs_t = ::mrlg::obs::current_tracer();\
            mrlg_obs_t != nullptr) {                                        \
            mrlg_obs_t->observe((name), static_cast<double>(v));            \
        }                                                                   \
    } while (false)
