#include "obs/memres.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace mrlg::obs {

namespace {

/// Parses a "VmXXX:   1234 kB" line value into bytes; 0 when absent.
std::uint64_t proc_status_kb(const std::string& status,
                             const char* field) {
    const std::size_t pos = status.find(field);
    if (pos == std::string::npos) {
        return 0;
    }
    std::istringstream in(status.substr(pos + std::strlen(field)));
    std::uint64_t kb = 0;
    in >> kb;
    return kb * 1024;
}

}  // namespace

MemorySample sample_memory() {
    MemorySample sample;

#if defined(__linux__)
    if (std::ifstream in("/proc/self/status"); in) {
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string status = buf.str();
        sample.peak_rss_bytes = proc_status_kb(status, "VmHWM:");
        sample.current_rss_bytes = proc_status_kb(status, "VmRSS:");
        sample.rss_available = sample.peak_rss_bytes > 0;
    }
    if (!sample.rss_available) {
        struct rusage usage {};
        if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
            // ru_maxrss is KiB on Linux.
            sample.peak_rss_bytes =
                static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
            sample.rss_available = true;
        }
    }
#endif

#if defined(__GLIBC__) && __GLIBC__ >= 2 && __GLIBC_MINOR__ >= 33
    const struct mallinfo2 mi = mallinfo2();
    sample.heap_bytes = static_cast<std::uint64_t>(mi.uordblks) +
                        static_cast<std::uint64_t>(mi.hblkhd);
    sample.heap_available = true;
#endif

    return sample;
}

namespace {

Json arena_json(const std::vector<ArenaUsage>& arenas) {
    Json j = Json::array();
    for (const ArenaUsage& a : arenas) {
        Json aj = Json::object();
        aj.set("name", Json::str(a.name));
        aj.set("bytes", Json::num(a.bytes));
        aj.set("entries", Json::num(a.entries));
        j.push(std::move(aj));
    }
    return j;
}

}  // namespace

Json memory_report_json(const MemorySample& sample,
                        const std::vector<ArenaUsage>& db_arenas,
                        const std::vector<ArenaUsage>& grid_arenas) {
    Json j = Json::object();
    j.set("rss_available", Json::boolean(sample.rss_available));
    j.set("peak_rss_bytes", Json::num(sample.peak_rss_bytes));
    j.set("current_rss_bytes", Json::num(sample.current_rss_bytes));
    j.set("heap_available", Json::boolean(sample.heap_available));
    j.set("heap_bytes", Json::num(sample.heap_bytes));
    if (!db_arenas.empty()) {
        j.set("db_arenas", arena_json(db_arenas));
        j.set("db_arena_bytes",
              Json::num(total_arena_bytes(db_arenas)));
    }
    if (!grid_arenas.empty()) {
        j.set("grid_arenas", arena_json(grid_arenas));
        j.set("grid_arena_bytes",
              Json::num(total_arena_bytes(grid_arenas)));
    }
    return j;
}

}  // namespace mrlg::obs
