/// bench_suite — the legalizer's benchmark: one command, four workloads,
/// end-to-end metrics from untraced repetitions and per-layer metrics from
/// one separate traced run plus an MLL stage probe (README.md here has
/// the metric dictionary and why each workload exists).
///
/// Each workload's design is synthesized from --seed with
/// generate_benchmark and written as Bookshelf; every repetition reads
/// those files back, so the program under test receives only files.
/// Layers are timed from here, around calls into their public functions;
/// the traced run reads the phase tree the legalizer already records.
/// Every time is reported at reference speed (see ReferenceKernel).
///
/// Usage:
///   bench_suite [--workload NAME]... [--seed N] [--reps N | --seconds S]
///               [--json PATH] [--trace PATH] [--skip-layers]
///               [--workdir DIR]
///     --workload NAME  sb12_193k | desperf1_dense | plarge_exact |
///                      eco_stream (repeatable; default: all four)
///     --seed N         input seed, >= 0 (default 1)
///     --reps N         timed repetitions per workload (default 5)
///     --seconds S      repeat until S seconds of repetitions have run
///                      (at least 3 repetitions); overrides --reps
///     --json PATH      write every metric with its spread and checks
///     --trace PATH     Chrome trace-event JSON of the bench-side spans
///                      recorded in the traced runs
///     --skip-layers    end-to-end metrics only (no traced run, no probe)
///     --workdir DIR    scratch directory for the Bookshelf inputs
///                      (default bench_suite_inputs; removed afterwards)
///   bench_suite --write-input NAME --seed N --workdir DIR
///     writes NAME's input into DIR and exits; the suite runs this in a
///     child process (write_input_in_child)
///
/// Prints one "workload metric value unit" line per metric on stdout.
/// Exit code: 0 when every correctness self-check passed, 1 when one
/// failed, 2 on usage errors.

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "db/segment.hpp"
#include "eval/legality.hpp"
#include "eval/metrics.hpp"
#include "io/benchmark_gen.hpp"
#include "io/bookshelf.hpp"
#include "io/profiles.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/evaluation.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/local_region.hpp"
#include "legalize/minmax_placement.hpp"
#include "legalize/mll.hpp"
#include "legalize/realization.hpp"
#include "obs/memres.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct WorkloadSpec {
    const char* name;
    const char* profile;  ///< Table-1 row or parallel_* family member.
    double scale;
    bool exact;  ///< MllOptions::exact_evaluation (Table 1's "ILP" column).
    bool eco;    ///< Closed-loop incremental batches on a legal placement.
};

// Why these four: README.md ("Workloads").
constexpr WorkloadSpec kWorkloads[] = {
    {"sb12_193k", "superblue12", 0.15, false, false},
    {"desperf1_dense", "des_perf_1", 1.0, false, false},
    {"plarge_exact", "parallel_l", 1.0, true, false},
    {"eco_stream", "parallel_l", 4.0, false, true},
};

/// Threads for everything the measured process runs. One: on the shared
/// 4-vCPU box the suite was tuned on, runs at 4 threads spread 2-3x wider
/// than at 1 even after reference scaling (README.md, "One thread, times
/// at reference speed"), and per-thread malloc arenas made peak memory
/// depend on scheduling. What bounds scaling is reported as counts
/// instead (pipeline.waves, pipeline.batch_width_*).
constexpr int kThreads = 1;
constexpr int kMinTimedReps = 3;
constexpr std::size_t kEcoBatches = 100;
constexpr std::size_t kEcoStride = 500;
constexpr std::size_t kEcoMultiplier = 7919;
constexpr double kEcoShiftSites = 12.0;
constexpr std::size_t kProbeSamples = 2000;
/// ReferenceKernel::run_s() on the reference box when the host is quiet.
constexpr double kReferenceKernelS = 0.35;

double since_s(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t steady_ns(Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

/// A fixed single-threaded kernel: std::sort of 4 Mi xorshift uint32.
/// Timed before and after each measured span, it yields the span's speed
/// factor kReferenceKernelS / mean kernel time, and every time the suite
/// reports is the measured time times that factor: the time the run
/// would have taken at reference speed. The host this suite was tuned on
/// drifts by up to 50 % in speed over minutes as other tenants come and
/// go; the kernel slows with it, so the factor cancels most of that drift
/// while any change in the legalizer's own speed passes through. Raw
/// medians stay in the --json output.
class ReferenceKernel {
public:
    /// Seconds for one sort; the 16 MiB buffer is allocated once, so the
    /// kernel never adds to the repetitions' peak memory.
    double run_s() {
        std::uint64_t x = 88172645463325252ull;
        for (std::uint32_t& e : buf_) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            e = static_cast<std::uint32_t>(x);
        }
        const auto t0 = Clock::now();
        std::sort(buf_.begin(), buf_.end());
        const double s = since_s(t0);
        if (!std::is_sorted(buf_.begin(), buf_.end())) {
            throw std::logic_error("reference kernel did not sort");
        }
        return s;
    }

    static double speed_factor(double before_s, double after_s) {
        return 2.0 * kReferenceKernelS / (before_s + after_s);
    }

private:
    std::vector<std::uint32_t> buf_ = std::vector<std::uint32_t>(1u << 22);
};

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// First and third quartile by Python's statistics.quantiles(n=4)
/// ("exclusive" method), so the suite and its validator agree.
std::pair<double, double> quartiles(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n < 2) {
        return {v.front(), v.front()};
    }
    auto q = [&](std::size_t i) {
        const std::size_t m = n + 1;
        const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
        const double delta = static_cast<double>(i * m) - 4.0 * j;
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    return {q(1), q(3)};
}

/// Nearest-rank percentile (p in (0, 100]).
double percentile(std::vector<double> v, double p) {
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t samples = 1;
    /// Deterministic for a given seed: must repeat bit for bit.
    bool exact = false;
    /// Unscaled median of a time-based metric.
    std::optional<double> raw;
};

Metric sampled(const std::string& name, const std::string& unit,
               const std::vector<double>& v) {
    const auto [q1, q3] = quartiles(v);
    return {name, unit, median(v), q1, q3, v.size(), false, std::nullopt};
}

/// Median and quartiles of raw[i] * scale[i] over the repetitions.
Metric timed(const std::string& name, const std::string& unit,
             const std::vector<double>& raw,
             const std::vector<double>& scale) {
    std::vector<double> scaled(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        scaled[i] = raw[i] * scale[i];
    }
    Metric m = sampled(name, unit, scaled);
    m.raw = median(raw);
    return m;
}

Metric single(const std::string& name, const std::string& unit,
              double value) {
    return {name, unit, value, value, value, 1, false, std::nullopt};
}

Metric exact(const std::string& name, const std::string& unit,
             double value) {
    return {name, unit, value, value, value, 1, true, std::nullopt};
}

// ---- inputs -----------------------------------------------------------------

GenProfile profile_for(const WorkloadSpec& w, std::uint64_t seed) {
    GenProfile p;
    if (parallel_profile(w.profile, w.scale, static_cast<int>(seed), p)) {
        return p;
    }
    for (const Table1Entry& e : table1_benchmarks(w.scale)) {
        if (e.profile.name == w.profile) {
            p = e.profile;
            p.seed += seed;
            return p;
        }
    }
    throw std::logic_error(std::string("unknown profile ") + w.profile);
}

LegalizerOptions options_for(const WorkloadSpec& w) {
    LegalizerOptions opts;
    opts.num_threads = kThreads;
    opts.mll.exact_evaluation = w.exact;
    return opts;
}

/// Synthesizes the workload's design and writes it as Bookshelf under
/// `dir`. eco_stream's input is a legal placement, so its design is
/// legalized here first. Runs in a child process (write_input_in_child).
void write_input(const WorkloadSpec& w, std::uint64_t seed,
                 const std::string& dir) {
    GridWriteScope grid_write;
    GenResult gen = generate_benchmark(profile_for(w, seed));
    if (!gen.packed_ok) {
        throw std::runtime_error("generator could not pack the design");
    }
    Database& db = gen.db;
    if (w.eco) {
        SegmentGrid grid = SegmentGrid::build(db);
        LegalizerOptions opts = options_for(w);
        opts.num_threads = 0;  // untimed: every thread
        if (!legalize_placement(db, grid, opts).success) {
            throw std::runtime_error("could not legalize the eco input");
        }
    }
    // Floorplan blockages have no Bookshelf form; fixed terminal nodes do,
    // and freeze_fixed_cells turns them back into blockages on read.
    const std::vector<Rect> blockages = db.floorplan().blockages();
    for (std::size_t i = 0; i < blockages.size(); ++i) {
        const Rect& b = blockages[i];
        const CellId id = db.add_cell(Cell("blk" + std::to_string(i), b.w,
                                           b.h, RailPhase::kEven, true));
        db.cell(id).set_pos(b.x, b.y);
    }
    write_bookshelf(db, dir, w.name);
}

/// Runs write_input in a child process (this binary with --write-input)
/// and returns the .aux path, so the generator's heap never mixes with
/// the repetitions': their peak memory and allocator state are then the
/// same whatever was generated before.
std::string write_input_in_child(const WorkloadSpec& w, std::uint64_t seed,
                                 const std::string& dir) {
    const std::string exe = fs::read_symlink("/proc/self/exe").string();
    std::vector<std::string> args = {exe, "--write-input", w.name,
                                     "--seed", std::to_string(seed),
                                     "--workdir", dir};
    std::vector<char*> argv;
    for (std::string& a : args) {
        argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    pid_t pid = 0;
    if (posix_spawn(&pid, exe.c_str(), nullptr, nullptr, argv.data(),
                    environ) != 0) {
        throw std::runtime_error("cannot start the input writer");
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR) {
            throw std::runtime_error("lost the input writer");
        }
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("input writer failed");
    }
    return dir + "/" + w.name + ".aux";
}

double dir_mb(const std::string& dir) {
    std::uintmax_t bytes = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
        bytes += e.file_size();
    }
    return static_cast<double>(bytes) / 1e6;
}

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, after
/// returning freed heap (an earlier workload's) to the system, so
/// peak_rss_mb covers this workload's repetitions only. Returns the RSS
/// it reset to, or nullopt when the kernel refuses.
std::optional<std::uint64_t> reset_peak_rss() {
    malloc_trim(0);
    std::ofstream f("/proc/self/clear_refs");
    f << "5";
    f.flush();
    const obs::MemorySample now = obs::sample_memory();
    if (!f || !now.rss_available) {
        return std::nullopt;
    }
    return now.current_rss_bytes;
}

// ---- bench-side spans ---------------------------------------------------------

/// Spans recorded around layer calls in the traced run (--trace). The
/// timeline is never installed as the ambient one, so the legalizer's own
/// wave/task events stay out of it.
struct SpanLog {
    obs::Timeline* timeline = nullptr;
    std::uint32_t workload = 0;
    std::uint32_t next = 0;

    void add(const char* name, Clock::time_point begin,
             Clock::time_point end) {
        if (timeline != nullptr) {
            timeline->span(name, {workload, next++, 0}, steady_ns(begin),
                           steady_ns(end));
        }
    }
};

// ---- one repetition ---------------------------------------------------------

struct Loaded {
    Database db;
    SegmentGrid grid;
    double read_s = 0.0;
    double grid_s = 0.0;
    double setup_s = 0.0;
};

/// Set-up: read_bookshelf + freeze_fixed_cells + SegmentGrid::build, and
/// for eco_stream placing every movable cell at its loaded position.
std::unique_ptr<Loaded> load(const std::string& aux, bool place_loaded,
                             SpanLog& spans) {
    GridWriteScope grid_write;
    auto l = std::make_unique<Loaded>();
    const auto t0 = Clock::now();
    l->db = read_bookshelf(aux).db;
    const auto t1 = Clock::now();
    l->db.freeze_fixed_cells();
    const auto t2 = Clock::now();
    l->grid = SegmentGrid::build(l->db);
    const auto t3 = Clock::now();
    if (place_loaded) {
        for (const CellId c : l->db.movable_cells()) {
            const Cell& cell = l->db.cell(c);
            l->grid.place(l->db, c,
                          static_cast<SiteCoord>(std::llround(cell.gp_x())),
                          static_cast<SiteCoord>(std::llround(cell.gp_y())));
        }
    }
    const auto t4 = Clock::now();
    spans.add("io.read", t0, t1);
    spans.add("db.freeze", t1, t2);
    spans.add("db.grid_build", t2, t3);
    if (place_loaded) {
        spans.add("eco.place_loaded", t3, t4);
    }
    l->read_s = std::chrono::duration<double>(t1 - t0).count();
    l->grid_s = std::chrono::duration<double>(t3 - t2).count();
    l->setup_s = std::chrono::duration<double>(t4 - t0).count();
    return l;
}

struct RunResult {
    LegalizerStats stats;         ///< Summed over the legalize calls.
    std::size_t cells = 0;        ///< Cells the calls had to place.
    double wall_s = 0.0;          ///< Σ legalize call walls.
    double cpu_s = 0.0;           ///< Process CPU during the calls.
    std::vector<double> call_ms;  ///< One per legalize call.
};

void accumulate(LegalizerStats& acc, const LegalizerStats& s) {
    acc.unplaced += s.unplaced;
    acc.waves += s.waves;
    acc.conflict_requeues += s.conflict_requeues;
    acc.rounds += s.rounds;
    acc.fallback_placements += s.fallback_placements;
}

/// Times one legalize_placement call that must place `cells` cells.
void timed_legalize(Loaded& l, const LegalizerOptions& opts,
                    std::size_t cells, SpanLog& spans, RunResult& out) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    const LegalizerStats s = legalize_placement(l.db, l.grid, opts);
    const auto t1 = Clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    out.cpu_s += process_cpu_s() - cpu0;
    out.wall_s += wall;
    out.call_ms.push_back(wall * 1e3);
    out.cells += cells;
    accumulate(out.stats, s);
    spans.add("legalize", t0, t1);
}

/// eco_stream: a closed loop with one client. Batch b unplaces the movable
/// cells with index i ≡ (7919·b + seed) mod 500, moves their global
/// placement ±12 sites in x and relegalizes with unplace_first = false.
/// 7919 is prime to 500, so the 100 batches touch disjoint cells.
void run_eco_stream(Loaded& l, LegalizerOptions opts, std::uint64_t seed,
                    SpanLog& spans, RunResult& out) {
    GridWriteScope grid_write;
    opts.unplace_first = false;
    const std::vector<CellId> movable = l.db.movable_cells();
    for (std::size_t b = 0; b < kEcoBatches; ++b) {
        const std::size_t first = (kEcoMultiplier * b + seed) % kEcoStride;
        std::size_t cells = 0;
        for (std::size_t i = first; i < movable.size(); i += kEcoStride) {
            Cell& cell = l.db.cell(movable[i]);
            if (cell.placed()) {
                l.grid.remove(l.db, movable[i]);
            }
            const double dx =
                (i / kEcoStride + b) % 2 == 0 ? kEcoShiftSites
                                              : -kEcoShiftSites;
            cell.set_gp(cell.gp_x() + dx, cell.gp_y());
            ++cells;
        }
        timed_legalize(l, opts, cells, spans, out);
    }
}

RunResult run_legalize(Loaded& l, const WorkloadSpec& w,
                       std::uint64_t seed, SpanLog& spans) {
    RunResult r;
    if (w.eco) {
        run_eco_stream(l, options_for(w), seed, spans, r);
    } else {
        timed_legalize(l, options_for(w), l.db.movable_cells().size(), spans,
                       r);
    }
    return r;
}

std::uint64_t placement_digest(const Database& db) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    for (const Cell& c : db.cells()) {
        mix(c.placed() ? 1 : 0);
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.x())));
        mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(c.y())));
    }
    return h;
}

/// Self-check failures of one workload, reported and counted.
struct Checks {
    std::vector<std::string> failures;

    void require(bool ok, const std::string& what) {
        if (!ok) {
            std::cerr << "CHECK FAILED: " << what << "\n";
            failures.push_back(what);
        }
    }
};

void check_legal(const Loaded& l, const std::string& what, Checks& checks) {
    LegalityOptions lopts;
    lopts.require_all_placed = true;
    lopts.num_threads = kThreads;
    const LegalityReport rep = check_legality(l.db, l.grid, lopts);
    checks.require(rep.legal,
                   what + ": illegal placement (" +
                       std::to_string(rep.num_overlaps) + " overlaps, " +
                       std::to_string(rep.num_unplaced) + " unplaced)");
}

// ---- traced run: the legalizer's own phase tree -----------------------------

const obs::PhaseNode* child(const obs::PhaseNode* n, std::string_view name) {
    if (n == nullptr) {
        return nullptr;
    }
    for (const auto& c : n->children) {
        if (c->name == name) {
            return c.get();
        }
    }
    return nullptr;
}

double total_s(const obs::PhaseNode* n) {
    return n != nullptr ? static_cast<double>(n->total_ns) * 1e-9 : 0.0;
}

struct TraceLayers {
    std::vector<Metric> metrics;
    /// The Tracer's legalize total, which the self times sum to.
    double legalize_s = 0.0;
};

/// Splits the Tracer's legalize phase into self times: setup, the part of
/// each round outside its waves, and per wave partition, plan, commit and
/// the wave's own remainder (its pending rescan). Times are scaled by
/// `speed` (see ReferenceKernel).
TraceLayers trace_layers(const obs::Tracer& tracer, const RunResult& run,
                         double speed) {
    const obs::PhaseNode* legalize = child(&tracer.root(), "legalize");
    const obs::PhaseNode* round = child(legalize, "round");
    const obs::PhaseNode* wave = child(round, "wave");
    const double calls =
        legalize != nullptr ? static_cast<double>(legalize->calls) : 1.0;
    const double setup = total_s(child(legalize, "setup"));
    const double partition = total_s(child(wave, "partition"));
    const double plan = total_s(child(wave, "plan"));
    const double commit = total_s(child(wave, "commit"));
    const double wave_other = total_s(wave) - partition - plan - commit;
    const double round_other = total_s(round) - total_s(wave);
    const double legalize_other =
        total_s(legalize) - setup - total_s(round);

    const obs::Histogram* batch = tracer.histogram("legalize.batch_size");
    const double batched = batch != nullptr ? batch->sum : 0.0;
    const double visits =
        static_cast<double>(run.stats.conflict_requeues) + batched;

    TraceLayers t;
    t.legalize_s = total_s(legalize);
    auto& m = t.metrics;
    m.push_back(single("legalize.setup_s", "s", setup / calls * speed));
    m.push_back(single("legalize.round_other_s", "s", round_other * speed));
    m.push_back(single("legalize.other_s", "s", legalize_other * speed));
    m.push_back(exact("legalize.rounds", "count",
                      static_cast<double>(run.stats.rounds)));
    m.push_back(exact("legalize.fallback_placements", "count",
                      static_cast<double>(run.stats.fallback_placements)));
    m.push_back(single("pipeline.partition_s", "s", partition * speed));
    m.push_back(exact("pipeline.partition_visits", "count", visits));
    m.push_back(single("pipeline.partition_ns_per_visit", "ns",
                       visits > 0 ? partition * speed * 1e9 / visits : 0.0));
    m.push_back(single("pipeline.plan_s", "s", plan * speed));
    m.push_back(single("pipeline.commit_s", "s", commit * speed));
    m.push_back(single("pipeline.wave_other_s", "s", wave_other * speed));
    m.push_back(exact("pipeline.waves", "count",
                      static_cast<double>(run.stats.waves)));
    m.push_back(exact("pipeline.batch_width_mean", "cells",
                      batch != nullptr && batch->count > 0
                          ? batch->sum / static_cast<double>(batch->count)
                          : 0.0));
    m.push_back(exact("pipeline.batch_width_max", "cells",
                      batch != nullptr ? batch->max : 0.0));
    m.push_back(exact("mll.cells_shifted", "count",
                      static_cast<double>(
                          tracer.counter("mll.cells_shifted"))));
    return t;
}

// ---- MLL stage probe ----------------------------------------------------------

struct ProbeTotals {
    std::size_t attempts = 0;
    std::size_t placed = 0;  ///< Attempts whose stage timings are summed.
    std::size_t mismatches = 0;
    double extract_ns = 0, build_ns = 0, minmax_ns = 0, intervals_ns = 0,
           enumerate_ns = 0, evaluate_ns = 0, realize_ns = 0, plan_ns = 0,
           commit_ns = 0;
    double local_cells = 0, intervals = 0, points = 0, moved = 0;
};

double ns_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Removes each of ~kProbeSamples evenly spaced movable cells in turn and
/// re-inserts it at its global placement through the public MLL stage
/// functions, timing each; then times mll_plan on the same problem and
/// mll_commit + mll_undo, and puts the cell back. The stage-composed
/// choice (serial first-strictly-lower rule) must equal mll_plan's.
ProbeTotals run_probe(Loaded& l, MllOptions opts, SpanLog& spans,
                      Checks& checks) {
    GridWriteScope grid_write;
    opts.num_threads = 1;
    opts.audit = AuditLevel::kOff;
    EnumerationOptions eopts;
    eopts.check_rail = opts.check_rail;
    eopts.max_points = opts.max_points;
    MllScratch scratch;
    EvalScratch eval_scratch;
    ProbeTotals t;

    const std::vector<CellId> movable = l.db.movable_cells();
    const std::size_t stride =
        std::max<std::size_t>(1, movable.size() / kProbeSamples);
    for (std::size_t k = 0; k < movable.size(); k += stride) {
        const CellId c = movable[k];
        const Cell& cell = l.db.cell(c);
        const SiteCoord old_x = cell.x();
        const SiteCoord old_y = cell.y();
        l.grid.remove(l.db, c);
        ++t.attempts;

        TargetSpec target;
        target.id = c;
        target.w = cell.width();
        target.h = cell.height();
        target.pref_x = cell.gp_x();
        target.pref_y = cell.gp_y();
        target.rail_phase = cell.rail_phase();
        // The window mll_plan derives (paper §3).
        const SiteCoord ax = static_cast<SiteCoord>(std::lround(target.pref_x));
        const SiteCoord ay = static_cast<SiteCoord>(std::lround(target.pref_y));
        const Rect window{static_cast<SiteCoord>(ax - opts.rx),
                          static_cast<SiteCoord>(ay - opts.ry),
                          static_cast<SiteCoord>(2 * opts.rx + target.w),
                          static_cast<SiteCoord>(2 * opts.ry + target.h)};

        // Untimed warm-up: both timed passes below see a warm cache.
        (void)mll_plan(l.db, l.grid, c, target.pref_x, target.pref_y, opts,
                       &scratch);

        MllStatus status = MllStatus::kNoRegion;
        SiteCoord x = 0;
        SiteCoord y = 0;
        std::vector<MllPlan::Move> moves;
        std::size_t num_points = 0;
        ProbeTotals one;
        const auto t0 = Clock::now();
        const LocalRegion region = extract_local_region(
            l.db, l.grid, window, cell.region(), &scratch.region);
        const auto t1 = Clock::now();
        one.extract_ns = ns_between(t0, t1);
        spans.add("probe.extract_local_region", t0, t1);
        if (region.height() > 0) {
            status = MllStatus::kNoInsertionPoint;
            LocalProblem lp =
                LocalProblem::build(l.db, region, &scratch.problem);
            const auto t2 = Clock::now();
            compute_minmax_placement(lp);
            const auto t3 = Clock::now();
            const std::vector<InsertionInterval> intervals =
                build_insertion_intervals(lp, target.w);
            const auto t4 = Clock::now();
            const EnumerationResult enumr =
                enumerate_insertion_points(lp, intervals, target, eopts);
            const auto t5 = Clock::now();
            std::size_t best = enumr.points.size();
            Evaluation best_eval;
            for (std::size_t i = 0; i < enumr.points.size(); ++i) {
                const Evaluation ev =
                    opts.exact_evaluation
                        ? evaluate_insertion_point_exact(
                              lp, enumr.points[i], target, eval_scratch)
                        : evaluate_insertion_point_approx(
                              lp, enumr.points[i], target, eval_scratch);
                if (ev.feasible && (best == enumr.points.size() ||
                                    ev.cost_um < best_eval.cost_um)) {
                    best = i;
                    best_eval = ev;
                }
            }
            const auto t6 = Clock::now();
            num_points = enumr.points.size();
            one.build_ns = ns_between(t1, t2);
            one.minmax_ns = ns_between(t2, t3);
            one.intervals_ns = ns_between(t3, t4);
            one.enumerate_ns = ns_between(t4, t5);
            one.evaluate_ns = ns_between(t5, t6);
            one.local_cells = static_cast<double>(lp.num_cells());
            one.intervals = static_cast<double>(intervals.size());
            one.points = static_cast<double>(num_points);
            spans.add("probe.local_problem_build", t1, t2);
            spans.add("probe.minmax_placement", t2, t3);
            spans.add("probe.insertion_intervals", t3, t4);
            spans.add("probe.enumeration", t4, t5);
            spans.add("probe.evaluation", t5, t6);
            if (best < enumr.points.size()) {
                const InsertionPoint& point = enumr.points[best];
                const Realization real =
                    realize_insertion(lp, point, best_eval.xt, target.w);
                const auto t7 = Clock::now();
                one.realize_ns = ns_between(t6, t7);
                spans.add("probe.realization", t6, t7);
                status = MllStatus::kSuccess;
                x = real.xt;
                y = static_cast<SiteCoord>(lp.y0() + point.k0);
                for (int i = 0; i < lp.num_cells(); ++i) {
                    const LpCell& lc = lp.cell(i);
                    const SiteCoord nx =
                        real.new_x[static_cast<std::size_t>(i)];
                    if (nx != lc.x) {
                        moves.push_back({lc.id, lc.x, nx});
                    }
                }
                one.moved = static_cast<double>(moves.size());
            }
        }

        const auto p0 = Clock::now();
        const MllPlan plan = mll_plan(l.db, l.grid, c, target.pref_x,
                                      target.pref_y, opts, &scratch);
        const auto p1 = Clock::now();
        spans.add("probe.mll_plan", p0, p1);
        bool same = plan.status == status;
        if (same && status != MllStatus::kNoRegion) {
            same = plan.num_points == num_points;
        }
        if (same && status == MllStatus::kSuccess) {
            same = plan.x == x && plan.y == y &&
                   plan.moves.size() == moves.size();
            for (std::size_t i = 0; same && i < moves.size(); ++i) {
                same = plan.moves[i].id == moves[i].id &&
                       plan.moves[i].old_x == moves[i].old_x &&
                       plan.moves[i].new_x == moves[i].new_x;
            }
        }
        if (!same) {
            ++t.mismatches;
        }

        if (plan.success()) {
            const auto c0 = Clock::now();
            const MllResult r = mll_commit(l.db, l.grid, c, plan);
            if (r.success()) {
                mll_undo(l.db, l.grid, c, r);
            }
            const auto c1 = Clock::now();
            spans.add("probe.mll_commit_undo", c0, c1);
            checks.require(r.success(), "probe: mll_commit of a fresh plan "
                                        "failed");
            if (status == MllStatus::kSuccess) {
                ++t.placed;
                t.extract_ns += one.extract_ns;
                t.build_ns += one.build_ns;
                t.minmax_ns += one.minmax_ns;
                t.intervals_ns += one.intervals_ns;
                t.enumerate_ns += one.enumerate_ns;
                t.evaluate_ns += one.evaluate_ns;
                t.realize_ns += one.realize_ns;
                t.plan_ns += ns_between(p0, p1);
                t.commit_ns += ns_between(c0, c1);
                t.local_cells += one.local_cells;
                t.intervals += one.intervals;
                t.points += one.points;
                t.moved += one.moved;
            }
        }
        l.grid.place(l.db, c, old_x, old_y);
    }
    checks.require(t.mismatches == 0,
                   "probe: stage-composed choice differs from mll_plan on " +
                       std::to_string(t.mismatches) + " of " +
                       std::to_string(t.attempts) + " attempts");
    checks.require(t.placed > 0, "probe: no sampled attempt was placed");
    return t;
}

std::vector<Metric> probe_metrics(const ProbeTotals& t, double speed) {
    const double n = static_cast<double>(std::max<std::size_t>(1, t.placed));
    const double us = speed / n / 1e3;  // Σ ns -> mean µs at reference speed
    std::vector<Metric> m;
    m.push_back(single("local_region.extract_us", "us", t.extract_ns * us));
    m.push_back(exact("local_region.cells_mean", "cells", t.local_cells / n));
    m.push_back(single("local_problem.build_us", "us", t.build_ns * us));
    m.push_back(single("minmax_placement.us", "us", t.minmax_ns * us));
    m.push_back(single("insertion_interval.build_us", "us",
                       t.intervals_ns * us));
    m.push_back(exact("insertion_interval.count_mean", "intervals",
                      t.intervals / n));
    m.push_back(single("enumeration.us", "us", t.enumerate_ns * us));
    m.push_back(exact("enumeration.points_mean", "points", t.points / n));
    m.push_back(single("evaluation.ns_per_point", "ns",
                       t.points > 0 ? t.evaluate_ns * speed / t.points : 0.0));
    m.push_back(single("realization.us", "us", t.realize_ns * us));
    m.push_back(exact("realization.moved_mean", "cells", t.moved / n));
    m.push_back(single("mll.plan_us", "us", t.plan_ns * us));
    m.push_back(single("mll.commit_us", "us", t.commit_ns * us));
    return m;
}

// ---- one workload -------------------------------------------------------------

struct WorkloadResult {
    std::string name;
    std::size_t cells = 0;
    int reps = 0;
    std::size_t attempted = 0;  ///< Cells the repetitions had to place.
    std::size_t failed = 0;     ///< Of those, left unplaced.
    bool layers = false;  ///< Traced run and probe metrics present.
    std::vector<Metric> metrics;
    Checks checks;
    /// Telemetry cross-checks (percent deviations; see README.md).
    std::optional<double> tracer_sum_pct;
    std::optional<double> probe_stage_sum_pct;
};

struct SuiteOptions {
    std::uint64_t seed = 1;
    int reps = 5;
    double seconds = 0.0;  ///< > 0: time-boxed repetitions.
    bool layers = true;
    std::string workdir;
};

WorkloadResult run_workload(const WorkloadSpec& w, std::uint32_t ordinal,
                            const SuiteOptions& so,
                            obs::Timeline* timeline) {
    WorkloadResult res;
    res.name = w.name;
    const std::string dir = so.workdir + "/" + w.name;
    fs::remove_all(dir);

    const auto prep0 = Clock::now();
    const std::string aux = write_input_in_child(w, so.seed, dir);
    std::cerr << w.name << ": input written in " << since_s(prep0)
              << " s\n";
    ReferenceKernel kernel;
    const std::optional<std::uint64_t> rss_base = reset_peak_rss();

    // ---- timed repetitions (no tracer, no timeline) -------------------------
    SpanLog no_spans;
    // Untimed warm-up load: the first repetition then reuses heap pages
    // like every later one instead of faulting them in.
    load(aux, w.eco, no_spans).reset();
    // Per repetition: speed factor, raw set-up and legalize times.
    std::vector<double> speed, inv_speed, setup_s, cpu_s, cells_per_s;
    std::vector<double> kernel_ms = {kernel.run_s() * 1e3};
    std::vector<double> call_ms, call_ms_raw, p50_ms, p90_ms;
    std::vector<double> wall_s;  // scaled
    std::optional<std::uint64_t> digest;
    // Over the warm-up and the first repetition only: heap the allocator
    // retains makes later repetitions' peaks creep up, and how many run
    // under --seconds depends on the host's speed.
    std::uint64_t peak_rss_bytes = 0;
    std::unique_ptr<Loaded> last;
    const auto reps0 = Clock::now();
    for (int rep = 0;; ++rep) {
        if (so.seconds > 0.0 ? rep >= kMinTimedReps &&
                                   since_s(reps0) >= so.seconds
                             : rep >= so.reps) {
            break;
        }
        last.reset();  // one design in memory at a time
        last = load(aux, w.eco, no_spans);
        if (w.eco) {
            check_legal(*last, "eco load", res.checks);
        }
        const RunResult r = run_legalize(*last, w, so.seed, no_spans);
        check_legal(*last, "repetition " + std::to_string(rep), res.checks);
        const std::uint64_t d = placement_digest(last->db);
        res.checks.require(!digest || *digest == d,
                           "placement digest differs between repetitions");
        digest = d;
        if (rep == 0) {
            peak_rss_bytes = obs::sample_memory().peak_rss_bytes;
        }
        // The kernel runs bracketing this repetition set its speed factor.
        kernel_ms.push_back(kernel.run_s() * 1e3);
        const double f = ReferenceKernel::speed_factor(
            kernel_ms[kernel_ms.size() - 2] / 1e3, kernel_ms.back() / 1e3);

        res.cells = last->db.movable_cells().size();
        res.attempted += r.cells;
        res.failed += r.stats.unplaced;
        ++res.reps;
        speed.push_back(f);
        inv_speed.push_back(1.0 / f);
        setup_s.push_back(last->setup_s);
        cpu_s.push_back(r.cpu_s);
        wall_s.push_back(r.wall_s * f);
        cells_per_s.push_back(static_cast<double>(r.cells) / r.wall_s);
        std::vector<double> scaled_calls;
        for (const double ms : r.call_ms) {
            scaled_calls.push_back(ms * f);
        }
        call_ms.insert(call_ms.end(), scaled_calls.begin(),
                       scaled_calls.end());
        call_ms_raw.insert(call_ms_raw.end(), r.call_ms.begin(),
                           r.call_ms.end());
        p50_ms.push_back(percentile(scaled_calls, 50));
        p90_ms.push_back(percentile(scaled_calls, 90));
        std::cerr << w.name << ": rep " << rep << " speed " << f
                  << ", setup " << last->setup_s << " s, legalize "
                  << r.wall_s << " s\n";
    }
    auto& m = res.metrics;
    m.push_back(timed("cells_per_s", "cells/s", cells_per_s, inv_speed));
    m.push_back(timed("cpu_s", "s", cpu_s, speed));
    m.push_back(timed("setup_s", "s", setup_s, speed));
    // Pooled over every call of every repetition (eco_stream: 100 per
    // repetition); the quartiles are those of the per-repetition values.
    auto call_metric = [&](const char* name, double p,
                           const std::vector<double>& per_rep) {
        Metric mt = sampled(name, "ms", per_rep);
        mt.value = percentile(call_ms, p);
        mt.samples = call_ms.size();
        mt.raw = percentile(call_ms_raw, p);
        return mt;
    };
    m.push_back(call_metric("call_ms_p50", 50, p50_ms));
    m.push_back(call_metric("call_ms_p90", 90, p90_ms));
    // Peak resident memory the legalizer added to the process: the binary,
    // libraries and kernel buffer before the reset are excluded.
    m.push_back(single(
        "peak_rss_mb", "MB",
        rss_base ? (static_cast<double>(peak_rss_bytes) -
                    static_cast<double>(*rss_base)) / 1e6
                 : std::numeric_limits<double>::quiet_NaN()));
    const DisplacementStats disp = displacement_stats(last->db);
    m.push_back(exact("disp_avg_sites", "sites", disp.avg_sites));
    m.push_back(exact("disp_max_sites", "sites", disp.max_sites));
    m.push_back(exact("dhpwl_pct", "%",
                      hpwl_delta(last->db, kThreads) * 100.0));
    m.push_back(exact("unplaced_frac", "ratio",
                      static_cast<double>(res.failed) /
                          static_cast<double>(res.attempted)));
    m.push_back(sampled("machine.ref_kernel_ms", "ms", kernel_ms));
    if (!so.layers) {
        fs::remove_all(dir);
        return res;
    }

    // ---- traced run ---------------------------------------------------------
    res.layers = true;
    last.reset();
    SpanLog spans{timeline, ordinal, 0};
    obs::Tracer tracer;
    const double trace_kernel_s = kernel.run_s();
    std::unique_ptr<Loaded> traced = load(aux, w.eco, spans);
    RunResult tr;
    {
        obs::ScopedTracer install(tracer);
        tr = run_legalize(*traced, w, so.seed, spans);
    }
    const double trace_speed =
        ReferenceKernel::speed_factor(trace_kernel_s, kernel.run_s());
    check_legal(*traced, "traced run", res.checks);
    res.checks.require(placement_digest(traced->db) == digest,
                       "traced run placement differs from the untraced "
                       "repetitions");
    const TraceLayers layers = trace_layers(tracer, tr, trace_speed);
    res.tracer_sum_pct = (layers.legalize_s - tr.wall_s) / tr.wall_s * 100.0;

    m.push_back(single("io.read_s", "s", traced->read_s * trace_speed));
    m.push_back(exact("io.input_mb", "MB", dir_mb(dir)));
    m.push_back(single("db.grid_build_s", "s", traced->grid_s * trace_speed));
    m.push_back(exact("db.arena_mb", "MB",
                      static_cast<double>(total_arena_bytes(
                          traced->db.memory_breakdown())) /
                          1e6));
    m.push_back(exact("db.grid_arena_mb", "MB",
                      static_cast<double>(total_arena_bytes(
                          traced->grid.memory_breakdown())) /
                          1e6));
    m.insert(m.end(), layers.metrics.begin(), layers.metrics.end());
    const double untraced = median(wall_s);
    m.push_back(single("trace_overhead_pct", "%",
                       (tr.wall_s * trace_speed - untraced) / untraced *
                           100.0));

    // ---- MLL stage probe on the final legal placement -------------------------
    const std::uint64_t before_probe = placement_digest(traced->db);
    const double probe_kernel_s = kernel.run_s();
    const ProbeTotals probe =
        run_probe(*traced, options_for(w).mll, spans, res.checks);
    const double probe_speed =
        ReferenceKernel::speed_factor(probe_kernel_s, kernel.run_s());
    res.checks.require(placement_digest(traced->db) == before_probe,
                       "probe did not restore the placement");
    const double stage_sum = probe.extract_ns + probe.build_ns +
                             probe.minmax_ns + probe.intervals_ns +
                             probe.enumerate_ns + probe.evaluate_ns +
                             probe.realize_ns;
    res.probe_stage_sum_pct =
        probe.plan_ns > 0 ? (stage_sum - probe.plan_ns) / probe.plan_ns * 100.0
                          : 0.0;
    const std::vector<Metric> pm = probe_metrics(probe, probe_speed);
    m.insert(m.end(), pm.begin(), pm.end());
    fs::remove_all(dir);
    return res;
}

// ---- output -------------------------------------------------------------------

Json metric_json(const Metric& mt) {
    Json j = Json::object();
    j.set("value", Json::num(mt.value));
    j.set("unit", Json::str(mt.unit));
    j.set("q1", Json::num(mt.q1));
    j.set("q3", Json::num(mt.q3));
    j.set("samples", Json::num(mt.samples));
    j.set("exact", Json::boolean(mt.exact));
    if (mt.raw) {
        j.set("raw", Json::num(*mt.raw));
    }
    return j;
}

Json workload_json(const WorkloadResult& r) {
    Json j = Json::object();
    j.set("name", Json::str(r.name));
    j.set("cells", Json::num(r.cells));
    j.set("reps", Json::num(r.reps));
    j.set("attempted", Json::num(r.attempted));
    j.set("failed", Json::num(r.failed));
    j.set("layers", Json::boolean(r.layers));
    j.set("correct", Json::boolean(r.checks.failures.empty()));
    Json failures = Json::array();
    for (const std::string& f : r.checks.failures) {
        failures.push(Json::str(f));
    }
    j.set("check_failures", std::move(failures));
    Json consistency = Json::object();
    if (r.tracer_sum_pct) {
        consistency.set("tracer_sum_pct", Json::num(*r.tracer_sum_pct));
    }
    if (r.probe_stage_sum_pct) {
        consistency.set("probe_stage_sum_pct",
                        Json::num(*r.probe_stage_sum_pct));
    }
    j.set("consistency", std::move(consistency));
    Json metrics = Json::object();
    for (const Metric& mt : r.metrics) {
        metrics.set(mt.name, metric_json(mt));
    }
    j.set("metrics", std::move(metrics));
    return j;
}

std::uint64_t l3_cache_bytes() {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
    std::string s;
    if (!(f >> s) || s.empty()) {
        return 0;
    }
    std::uint64_t v = std::strtoull(s.c_str(), nullptr, 10);
    if (s.back() == 'K') {
        v <<= 10;
    } else if (s.back() == 'M') {
        v <<= 20;
    }
    return v;
}

const WorkloadSpec* find_workload(const std::string& name) {
    for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) {
            return &w;
        }
    }
    return nullptr;
}

int usage(const std::string& why) {
    std::cerr << "bench_suite: " << why << "\n"
              << "usage: bench_suite [--workload NAME]... [--seed N]\n"
                 "       [--reps N | --seconds S] [--json PATH]\n"
                 "       [--trace PATH] [--skip-layers] [--workdir DIR]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args(argc, argv);
    set_log_level(LogLevel::kWarn);

    SuiteOptions so;
    const int seed = args.get_int("--seed", 1);
    so.reps = args.get_int("--reps", 5);
    so.seconds = args.get_double("--seconds", 0.0);
    if (seed < 0 || so.reps < 1 || !(so.seconds >= 0.0)) {
        return usage("--seed must be >= 0, --reps >= 1, --seconds >= 0");
    }
    so.seed = static_cast<std::uint64_t>(seed);
    so.layers = !args.has_flag("--skip-layers");
    so.workdir = args.get_string("--workdir", "bench_suite_inputs");

    // Child mode of write_input_in_child: --workdir is the input directory.
    if (const std::string name = args.get_string("--write-input", "");
        !name.empty()) {
        const WorkloadSpec* w = find_workload(name);
        if (w == nullptr) {
            return usage("unknown workload " + name);
        }
        try {
            write_input(*w, so.seed, so.workdir);
        } catch (const std::exception& e) {
            std::cerr << "bench_suite: " << name << ": " << e.what() << "\n";
            return 1;
        }
        return 0;
    }

    std::vector<const WorkloadSpec*> selected;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--workload") {
            selected.push_back(find_workload(argv[i + 1]));
            if (selected.back() == nullptr) {
                return usage(std::string("unknown workload ") + argv[i + 1]);
            }
        }
    }
    if (selected.empty()) {
        for (const WorkloadSpec& w : kWorkloads) {
            selected.push_back(&w);
        }
    }
    const std::string json_path = args.get_string("--json", "");
    const std::string trace_path = args.get_string("--trace", "");

    // One lane: only this thread records, and the capacity holds every
    // probe span of all four workloads.
    std::unique_ptr<obs::Timeline> timeline;
    if (!trace_path.empty()) {
        timeline = std::make_unique<obs::Timeline>(1, 1u << 17);
    }

    const auto t0 = Clock::now();
    std::vector<WorkloadResult> results;
    bool correct = true;
    try {
        for (std::size_t i = 0; i < selected.size(); ++i) {
            results.push_back(run_workload(*selected[i],
                                           static_cast<std::uint32_t>(i + 1),
                                           so, timeline.get()));
            correct = correct && results.back().checks.failures.empty();
        }
    } catch (const std::exception& e) {
        std::cerr << "bench_suite: " << e.what() << "\n";
        return 1;
    }
    std::error_code ignored;
    fs::remove(so.workdir, ignored);  // only when empty
    const double wall = since_s(t0);

    for (const WorkloadResult& r : results) {
        for (const Metric& mt : r.metrics) {
            std::cout << r.name << ' ' << mt.name << ' ' << mt.value << ' '
                      << mt.unit << "\n";
        }
    }

    if (!json_path.empty()) {
        Json root = Json::object();
        root.set("suite", Json::str("bench_suite"));
        root.set("seed", Json::num(so.seed));
        root.set("threads", Json::num(kThreads));
        Json env = Json::object();
        env.set("nproc", Json::num(ThreadPool::config().hardware_threads));
        env.set("l3_bytes", Json::num(l3_cache_bytes()));
        root.set("environment", std::move(env));
        root.set("wall_s", Json::num(wall));
        root.set("correct", Json::boolean(correct));
        Json wl = Json::array();
        for (const WorkloadResult& r : results) {
            wl.push(workload_json(r));
        }
        root.set("workloads", std::move(wl));
        if (!write_json_file(json_path, root)) {
            return 1;
        }
    }
    if (timeline != nullptr) {
        if (timeline->dropped_events() != 0) {
            std::cerr << "bench_suite: trace dropped "
                      << timeline->dropped_events() << " events\n";
            correct = false;
        }
        if (!obs::write_chrome_trace(trace_path, *timeline, "bench_suite")) {
            return 1;
        }
    }
    std::cerr << "bench_suite: " << wall << " s, "
              << (correct ? "all checks passed" : "CHECKS FAILED") << "\n";
    return correct ? 0 : 1;
}
