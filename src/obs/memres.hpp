#pragma once
/// \file memres.hpp
/// Process memory telemetry for the run report's wall-clock-only `memory`
/// block. Everything here is observational and platform-dependent by
/// nature, so — like the Timeline — none of it may feed deterministic
/// output: the block is emitted only under the wall clock and is excluded
/// from goldens.
///
/// Two layers, each degrading gracefully:
///   * RSS via /proc/self/status (VmHWM/VmRSS), falling back to
///     getrusage(ru_maxrss); zeros when neither source exists.
///   * Heap via mallinfo2 (glibc only; `heap_available` says whether the
///     numbers mean anything).

#include <cstdint>
#include <vector>

#include "db/arena_stats.hpp"
#include "obs/json.hpp"

namespace mrlg::obs {

/// Point-in-time snapshot of the process's memory footprint.
struct MemorySample {
    std::uint64_t peak_rss_bytes = 0;     ///< VmHWM / ru_maxrss.
    std::uint64_t current_rss_bytes = 0;  ///< VmRSS (0 with the fallback).
    std::uint64_t heap_bytes = 0;         ///< mallinfo2 in-use (arena+mmap).
    bool rss_available = false;
    bool heap_available = false;
};

/// Reads the current process footprint. Cheap (one /proc read), but meant
/// for report time, not hot loops.
MemorySample sample_memory();

/// Serializes the `memory` block: the process sample plus the db arena
/// breakdowns (pass what the caller has; empty vectors are omitted).
Json memory_report_json(const MemorySample& sample,
                        const std::vector<ArenaUsage>& db_arenas,
                        const std::vector<ArenaUsage>& grid_arenas);

}  // namespace mrlg::obs
