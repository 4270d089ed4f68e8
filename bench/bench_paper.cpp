/// bench_paper — the paper's §6 experiments and this repository's
/// ablations and extensions (DESIGN.md §3), one named experiment at a
/// time. Each experiment generates its designs once and legalizes each
/// under every configuration --runs times. Every legalization is checked:
/// a cell left unplaced or a broken §2 constraint exits 1. Each experiment
/// prints one table, a timing as its median over the runs. Every other
/// value must repeat exactly in every run, or the bench exits 1 naming the
/// experiment, row and column. --json writes every table, each timing as
/// its median, min and max. EXPERIMENTS.md quotes BENCH_paper.json, which
/// `bench_paper --experiment all --json BENCH_paper.json` writes.
///
/// Flags:
///   --experiment NAME  an experiment of the usage, or `all` of them in
///                      order
///   --scale F          multiplies every experiment's cell counts
///                      (default 1; enumeration's fixtures are fixed)
///   --runs N           runs per design and configuration (default 3)
///   --json PATH        write the results to PATH
/// Exit code: 0 when every check passes, 1 when one fails, 2 on usage
/// errors.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "cli_args.hpp"
#include "dp/detailed_placer.hpp"
#include "dp/row_polish.hpp"
#include "eval/metrics.hpp"
#include "io/profiles.hpp"
#include "legalize/abacus.hpp"
#include "legalize/enumeration.hpp"
#include "legalize/greedy.hpp"
#include "legalize/insertion_interval.hpp"
#include "legalize/local_problem.hpp"
#include "legalize/minmax_placement.hpp"
#include "obs/run_report.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace mrlg;
using namespace mrlg::bench;

namespace {

/// One table cell: a number, or text (a name, or "-" where a row has no
/// such value).
struct Value {
    Value(double v) : num(v) {}
    Value(int v) : num(v) {}
    Value(std::size_t v) : num(static_cast<double>(v)) {}
    Value(const char* s) : text(s), is_text(true) {}
    Value(std::string s) : text(std::move(s)), is_text(true) {}
    bool operator==(const Value&) const = default;

    double num = 0.0;
    std::string text;
    bool is_text = false;
};

/// A column: its header, which is also its JSON key, the decimals it
/// prints, and whether it is a timing (or a ratio of timings), the only
/// kind of value that may differ between runs.
struct Column {
    const char* name;
    int digits = 0;
    bool timing = false;
};

/// A table row: the label that names it in messages, and its values in
/// column order, once per run.
struct Row {
    std::string label;
    std::vector<std::vector<Value>> runs;
};

struct Sheet {
    std::string title;
    std::vector<Column> columns;
    std::vector<Row> rows;
};

/// What an experiment runs with.
struct Ctx {
    const char* experiment;
    double scale;
    int runs;

    /// The row `label`: `measure(run)` for each run.
    template <typename F>
    Row repeat(std::string label, F&& measure) const {
        std::cerr << experiment << ": " << label << "\n";
        Row row{std::move(label), {}};
        for (int r = 0; r < runs; ++r) {
            row.runs.push_back(measure(r));
        }
        return row;
    }

    /// Names a run of row `label` in a failure message.
    std::string where(const std::string& label) const {
        return std::string(experiment) + ": " + label;
    }

    /// `n` cells at this scale.
    std::size_t cells(std::size_t n) const {
        return static_cast<std::size_t>(
            std::llround(static_cast<double>(n) * scale));
    }

    /// `p` with every cell count at this scale.
    GenProfile scaled(GenProfile p) const {
        for (std::size_t* n :
             {&p.num_single, &p.num_double, &p.num_triple, &p.num_quad}) {
            *n = cells(*n);
        }
        return p;
    }
};

/// Σ over `rows` of column `col` in run `run`.
double column_sum(const std::vector<Row>& rows, int run, std::size_t col) {
    double sum = 0.0;
    for (const Row& row : rows) {
        sum += row.runs[static_cast<std::size_t>(run)][col].num;
    }
    return sum;
}

/// `den` > 0 ? `num` / `den` : 0.
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

const char* rails_name(bool aligned) {
    return aligned ? "aligned" : "relaxed";
}

// ---------------------------------------------------------------- Table 1

/// Table 1's "ILP" column: none, the exact optimum of every local
/// subproblem (exact evaluation of every insertion point), or the
/// paper's MIP solved for every MLL call.
enum class Ilp { kNone, kExact, kMip };

/// Table 1 on the 20 profiles at `base` of the paper's cell counts (or
/// on the one named `only`): "Ours" under each rail mode of `rails` and,
/// unless `ilp` is kNone, "ILP" beside it. Each rail mode's rows end in
/// Avg. and, with ILP, N.Avg (the ILP column sums over the Ours ones).
Sheet table1_sheet(const Ctx& ctx, std::string title, double base, Ilp ilp,
                   const std::vector<bool>& rails, const char* only) {
    Sheet s{std::move(title),
            {{"Rails"}, {"Benchmark"}, {"#S.Cell"}, {"#D.Cell"},
             {"Density", 2}, {"GP HPWL(m)", 3}},
            {}};
    constexpr std::size_t kFirstMetric = 6;
    if (ilp == Ilp::kNone) {
        s.columns.insert(s.columns.end(), {{"Disp Ours", 2},
                                           {"dHPWL% Ours", 2},
                                           {"RT Ours(s)", 2, true}});
    } else {
        s.columns.insert(s.columns.end(),
                         {{"Disp ILP", 2}, {"Disp Ours", 2},
                          {"dHPWL% ILP", 2}, {"dHPWL% Ours", 2},
                          {"RT ILP(s)", 2, true}, {"RT Ours(s)", 2, true}});
    }

    std::vector<std::vector<Row>> groups(rails.size());
    for (const Table1Entry& entry : table1_benchmarks(base)) {
        if (only != nullptr && entry.profile.name != only) {
            continue;
        }
        const GenProfile p = ctx.scaled(entry.profile);
        GenResult gen = generate_benchmark(p);
        Database& db = gen.db;
        SegmentGrid grid = SegmentGrid::build(db);
        for (std::size_t m = 0; m < rails.size(); ++m) {
            const std::string label = p.name + " " + rails_name(rails[m]);
            groups[m].push_back(ctx.repeat(label, [&](int) {
                LegalizerOptions ours;
                ours.mll.check_rail = rails[m];
                ours.seed = p.seed;
                const RunMetrics o = run_legalization(
                    db, grid, ours, ctx.where(label + ", Ours"));
                std::vector<Value> v = {
                    rails_name(rails[m]),      p.name,
                    db.num_single_row_cells(), db.num_multi_row_cells(),
                    db.density(),              o.gp_hpwl_m};
                if (ilp == Ilp::kNone) {
                    v.insert(v.end(), {o.disp_avg_sites, o.dhpwl_pct,
                                       o.stats.runtime_s});
                    return v;
                }
                LegalizerOptions exact = ours;
                exact.mll.exact_evaluation = true;
                exact.mll.use_mip = ilp == Ilp::kMip;
                const RunMetrics e = run_legalization(
                    db, grid, exact, ctx.where(label + ", ILP"));
                v.insert(v.end(),
                         {e.disp_avg_sites, o.disp_avg_sites, e.dhpwl_pct,
                          o.dhpwl_pct, e.stats.runtime_s, o.stats.runtime_s});
                return v;
            }));
        }
    }

    for (std::size_t m = 0; m < rails.size(); ++m) {
        const std::vector<Row>& rows = groups[m];
        const char* mode = rails_name(rails[m]);
        s.rows.insert(s.rows.end(), rows.begin(), rows.end());
        s.rows.push_back(ctx.repeat(std::string("Avg. ") + mode, [&](int r) {
            std::vector<Value> v = {mode, "Avg.", "", "", "", ""};
            for (std::size_t c = kFirstMetric; c < s.columns.size(); ++c) {
                v.emplace_back(column_sum(rows, r, c) /
                               static_cast<double>(rows.size()));
            }
            return v;
        }));
        if (ilp != Ilp::kNone) {
            s.rows.push_back(
                ctx.repeat(std::string("N.Avg ") + mode, [&](int r) {
                    const auto sum = [&](std::size_t c) {
                        return column_sum(rows, r, kFirstMetric + c);
                    };
                    return std::vector<Value>{
                        mode, "N.Avg", "", "", "", "",
                        ratio(sum(0), sum(1)), 1.0,
                        sum(2) / std::max(sum(3), 1e-9), 1.0,
                        ratio(sum(4), sum(5)), 1.0};
                }));
        }
    }
    return s;
}

Sheet table1(const Ctx& ctx) {
    return table1_sheet(ctx,
                        "Table 1: Ours vs ILP (exact local optimum), 0.02 "
                        "of the paper's cell counts",
                        0.02, Ilp::kExact, {true, false}, nullptr);
}

Sheet table1_mip(const Ctx& ctx) {
    return table1_sheet(ctx,
                        "Table 1 with the paper's MIP as ILP, 0.004 of the "
                        "paper's cell counts",
                        0.004, Ilp::kMip, {true}, nullptr);
}

Sheet superblue12(const Ctx& ctx) {
    return table1_sheet(ctx, "superblue12 at the paper's size", 1.0,
                        Ilp::kNone, {true, false}, "superblue12");
}

// -------------------------------------------------------------- ablations

/// Ablation A: the paper's §5.2 claim that the O(h_t) neighbour
/// approximation is "accurate enough to choose the near-optimal place",
/// against exact evaluation, on Table 1 profiles from low to high density.
Sheet ablation_eval(const Ctx& ctx) {
    Sheet s{"Ablation A: approximate vs exact insertion-point evaluation "
            "(paper 5.2)",
            {{"Benchmark"}, {"Density", 2}, {"Disp approx", 3},
             {"Disp exact", 3}, {"Disp gap %", 1}, {"RT approx(s)", 2, true},
             {"RT exact(s)", 2, true}, {"RT ratio", 1, true}},
            {}};
    const std::vector<Table1Entry> all = table1_benchmarks(0.02);
    for (const std::size_t pick : {14, 3, 8, 4, 0}) {
        const GenProfile p = ctx.scaled(all[pick].profile);
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        s.rows.push_back(ctx.repeat(p.name, [&](int) {
            const RunMetrics a = run_legalization(
                gen.db, grid, {}, ctx.where(p.name + ", approximate"));
            LegalizerOptions exact;
            exact.mll.exact_evaluation = true;
            const RunMetrics e = run_legalization(
                gen.db, grid, exact, ctx.where(p.name + ", exact"));
            return std::vector<Value>{
                p.name, gen.db.density(), a.disp_avg_sites, e.disp_avg_sites,
                e.disp_avg_sites > 0
                    ? (a.disp_avg_sites / e.disp_avg_sites - 1.0) * 100.0
                    : 0.0,
                a.stats.runtime_s, e.stats.runtime_s,
                ratio(e.stats.runtime_s, a.stats.runtime_s)};
        }));
    }
    const std::vector<Row> rows = s.rows;
    const double n = static_cast<double>(rows.size());
    s.rows.push_back(ctx.repeat("Avg.", [&](int r) {
        return std::vector<Value>{"Avg.", "", "", "",
                                  column_sum(rows, r, 4) / n, "", "",
                                  column_sum(rows, r, 7) / n};
    }));
    return s;
}

/// Ablation B: the paper fixes the MLL window at Rx=30, Ry=5 (§3); sweep
/// both radii on fft_1 for the quality-vs-speed knee.
Sheet window_sweep(const Ctx& ctx) {
    const GenProfile p = ctx.scaled(table1_benchmarks(0.02)[4].profile);
    Sheet s{"Ablation B: MLL window size sweep on " + p.name +
                " (paper default Rx=30, Ry=5)",
            {{"Rx"}, {"Ry"}, {"Disp (sites)", 3}, {"dHPWL %", 2},
             {"Runtime (s)", 3, true}},
            {}};
    struct Window {
        SiteCoord rx;
        SiteCoord ry;
    };
    static constexpr Window kWindows[] = {
        {5, 5},  {10, 5}, {20, 5}, {30, 5}, {50, 5}, {30, 1},
        {30, 2}, {30, 3}, {30, 8}, {10, 2}, {50, 8}};
    GenResult gen = generate_benchmark(p);
    SegmentGrid grid = SegmentGrid::build(gen.db);
    for (const Window& w : kWindows) {
        const std::string label =
            "Rx " + std::to_string(w.rx) + ", Ry " + std::to_string(w.ry);
        s.rows.push_back(ctx.repeat(label, [&](int) {
            LegalizerOptions opts;
            opts.mll.rx = w.rx;
            opts.mll.ry = w.ry;
            const RunMetrics m =
                run_legalization(gen.db, grid, opts, ctx.where(label));
            return std::vector<Value>{w.rx, w.ry, m.disp_avg_sites,
                                      m.dhpwl_pct, m.stats.runtime_s};
        }));
    }
    return s;
}

/// Ablation D: the paper's §1 motivation against the classic
/// alternatives. Greedy/Tetris (placed cells never move, Hill [7]) across
/// a density sweep, then Abacus [3] on a single-row design (its home
/// turf) and its rejection of a multi-row one; MLL on the same design in
/// every row. A baseline's outcome and unplaced cells are measured
/// values, not failures.
Sheet baselines(const Ctx& ctx) {
    Sheet s{"Ablation D: greedy and Abacus baselines vs MLL (paper 1)",
            {{"Design"}, {"Density", 2}, {"Baseline"}, {"Outcome"},
             {"Unplaced"}, {"Disp baseline", 3}, {"Disp MLL", 3},
             {"Ratio", 2}, {"RT baseline (s)", 3, true},
             {"RT MLL (s)", 3, true}},
            {}};
    const std::size_t cells = ctx.cells(4000);
    const auto add = [&](double density, bool multi_row, bool greedy) {
        GenProfile p;
        p.name = "sweep";
        p.num_single = multi_row ? cells * 9 / 10 : cells;
        p.num_double = multi_row ? cells / 10 : 0;
        p.density = density;
        p.seed = 12345 + static_cast<std::uint64_t>(density * 100);
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        const char* design = multi_row ? "multi-row" : "single-row";
        const char* baseline = greedy ? "greedy" : "Abacus";
        const std::string label = std::string(design) + " d=" +
                                  format_fixed(density, 2) + ", " + baseline;
        // The baseline's stats `st`, then MLL on the same design.
        const auto row = [&](const auto& st, bool rejected) {
            const double disp = displacement_stats(gen.db).avg_sites;
            const RunMetrics m = run_legalization(
                gen.db, grid, {}, ctx.where(label + ", MLL"));
            if (rejected) {
                return std::vector<Value>{
                    design, density, baseline, "rejected (multi-row cells)",
                    "-", "-", m.disp_avg_sites, "-", st.runtime_s,
                    m.stats.runtime_s};
            }
            return std::vector<Value>{
                design, density, baseline, st.success ? "legal" : "FAILED",
                st.unplaced, disp, m.disp_avg_sites,
                ratio(disp, m.disp_avg_sites), st.runtime_s,
                m.stats.runtime_s};
        };
        s.rows.push_back(ctx.repeat(label, [&](int) {
            reset_placement(gen.db, grid);
            if (greedy) {
                return row(greedy_legalize(gen.db, grid), false);
            }
            const AbacusStats st = abacus_legalize(gen.db, grid);
            return row(st, st.rejected_multi_row);
        }));
    };
    for (const double density : {0.3, 0.5, 0.7, 0.8, 0.9}) {
        add(density, true, true);
    }
    add(0.6, false, false);
    add(0.6, true, false);
    return s;
}

// ------------------------------------------------------------- extensions

/// Beyond the paper's benchmarks, which hold only double-height cells:
/// the §2 formulation allows any height, so sweep the height mix.
Sheet heights(const Ctx& ctx) {
    Sheet s{"Extension: height-mix sweep at density 0.60",
            {{"Mix"}, {"#1r"}, {"#2r"}, {"#3r"}, {"#4r"}, {"Disp (sites)", 3},
             {"dHPWL %", 2}, {"RT (s)", 3, true}},
            {}};
    struct Mix {
        const char* name;
        double singles, doubles, triples, quads;
    };
    static constexpr Mix kMixes[] = {
        {"all-single (classic)", 1.00, 0.00, 0.00, 0.00},
        {"paper (10% double)", 0.90, 0.10, 0.00, 0.00},
        {"+triples", 0.85, 0.10, 0.05, 0.00},
        {"+quads", 0.82, 0.10, 0.05, 0.03},
        {"tall-heavy", 0.60, 0.20, 0.12, 0.08},
    };
    const double cells = static_cast<double>(ctx.cells(4000));
    for (const Mix& mix : kMixes) {
        GenProfile p;
        p.name = mix.name;
        p.num_single = static_cast<std::size_t>(mix.singles * cells);
        p.num_double = static_cast<std::size_t>(mix.doubles * cells);
        p.num_triple = static_cast<std::size_t>(mix.triples * cells);
        p.num_quad = static_cast<std::size_t>(mix.quads * cells);
        p.density = 0.6;
        p.seed = 77;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        s.rows.push_back(ctx.repeat(mix.name, [&](int) {
            const RunMetrics m =
                run_legalization(gen.db, grid, {}, ctx.where(mix.name));
            return std::vector<Value>{
                mix.name,     p.num_single, p.num_double,
                p.num_triple, p.num_quad,   m.disp_avg_sites,
                m.dhpwl_pct,  m.stats.runtime_s};
        }));
    }
    return s;
}

/// The ISPD2015 suite the paper evaluates on has fence regions: sweep the
/// fraction of fenced cells and split displacement by population
/// (members shuffle only inside their region).
Sheet fences(const Ctx& ctx) {
    Sheet s{"Extension: fence regions at density 0.60",
            {{"Fenced cells %"}, {"Disp (sites)", 3}, {"Disp fenced", 3},
             {"Disp core", 3}, {"dHPWL %", 2}, {"RT (s)", 3, true}},
            {}};
    const std::size_t cells = ctx.cells(4000);
    for (const double frac : {0.0, 0.1, 0.2, 0.35, 0.5}) {
        GenProfile p;
        p.name = "fences";
        p.num_single = cells * 9 / 10;
        p.num_double = cells / 10;
        p.density = 0.6;
        p.fence_cell_frac = frac;
        p.seed = 31;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        const std::string label = format_fixed(frac * 100, 0) + "% fenced";
        s.rows.push_back(ctx.repeat(label, [&](int) {
            const RunMetrics m =
                run_legalization(gen.db, grid, {}, ctx.where(label));
            const double sw = gen.db.floorplan().site_w_um();
            const double sh = gen.db.floorplan().site_h_um();
            double disp[2] = {0.0, 0.0};  // core, fenced
            std::size_t count[2] = {0, 0};
            for (const Cell& c : gen.db.cells()) {
                if (c.placed()) {
                    const std::size_t k = c.region() != 0 ? 1 : 0;
                    disp[k] += (std::abs(c.x() - c.gp_x()) * sw +
                                std::abs(c.y() - c.gp_y()) * sh) /
                               sw;
                    ++count[k];
                }
            }
            const auto mean = [&](std::size_t k) {
                return count[k] == 0
                           ? Value("-")
                           : Value(disp[k] / static_cast<double>(count[k]));
            };
            return std::vector<Value>{frac * 100, m.disp_avg_sites, mean(1),
                                      mean(0), m.dhpwl_pct, m.stats.runtime_s};
        }));
    }
    return s;
}

/// The application the paper motivates MLL with (§1, [11,12]): median
/// moves through MLL with every intermediate state legal, then global
/// swaps and the single-row polish, whose skipped segments quantify §1's
/// claim about single-row techniques. GP noise is raised to leave
/// wirelength on the table, as a real global placement would.
Sheet detailed(const Ctx& ctx) {
    Sheet s{"Extension: detailed placement with instant legalization "
            "(HPWL recovery)",
            {{"Benchmark"}, {"Density", 2}, {"HPWL legal (m)", 4},
             {"HPWL dp (m)", 4}, {"Gain %", 2}, {"+swap %", 2},
             {"+polish %", 2}, {"Rows untouchable %", 1}, {"Moves ok"},
             {"Moves tried"}, {"MLL fails"}, {"RT (s)", 2, true}},
            {}};
    const std::vector<Table1Entry> all = table1_benchmarks(0.01);
    for (const std::size_t pick : {4, 3, 8, 0}) {
        GenProfile p = ctx.scaled(all[pick].profile);
        p.gp_sigma_x = 3.0;
        p.gp_sigma_y = 0.8;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        s.rows.push_back(ctx.repeat(p.name, [&](int) {
            run_legalization(gen.db, grid, {}, ctx.where(p.name));
            const DetailedPlacementStats dp = detailed_place(gen.db, grid);
            const SwapStats sp = swap_pass(gen.db, grid);
            const RowPolishStats rp = row_polish(gen.db, grid);
            require_legal(gen.db, grid, true,
                          ctx.where(p.name + ", after detailed placement"));
            const double occupied = static_cast<double>(
                rp.segments_polished + rp.segments_skipped_multirow);
            return std::vector<Value>{
                p.name, gen.db.density(), dp.hpwl_before_um * 1e-6,
                dp.hpwl_after_um * 1e-6, dp.improvement_pct(),
                sp.hpwl_before_um > 0
                    ? (1.0 - sp.hpwl_after_um / sp.hpwl_before_um) * 100
                    : 0.0,
                rp.improvement_pct(),
                ratio(100.0 * static_cast<double>(
                                  rp.segments_skipped_multirow),
                      occupied),
                dp.moves_accepted, dp.moves_attempted, dp.mll_failures,
                dp.runtime_s};
        }));
    }
    return s;
}

// ------------------------------------------------------------ enumeration

/// Calls per timing of one enumerator on one fixture: the smallest
/// fixture takes about a microsecond a call, the naive enumeration of the
/// largest a few milliseconds.
constexpr int kEnumerationCalls = 100;

/// µs per call of `call`, over kEnumerationCalls calls.
template <typename F>
double us_per_call(F&& call) {
    const Timer timer;
    for (int i = 0; i < kEnumerationCalls; ++i) {
        call();
    }
    return timer.elapsed_s() * 1e6 / kEnumerationCalls;
}

/// A *tightly packed* local problem with `cells_per_row` cells on each of
/// `rows` rows: little slack means each interval's feasible range is
/// short, so only a tiny fraction of the cartesian product of gaps has a
/// common cutline. This is where the scanline's output-sensitivity beats
/// the naive full-product enumeration (paper §5.1.3).
struct Fixture {
    Database db;
    SegmentGrid grid;
    LocalProblem lp;
    std::vector<InsertionInterval> intervals;
    TargetSpec target;

    Fixture(int rows, int cells_per_row, int target_h)
        : db(Floorplan(static_cast<SiteCoord>(rows),
                       static_cast<SiteCoord>(cells_per_row * 8 + 4))),
          grid(SegmentGrid::build(db)) {
        Rng rng(7);
        for (int r = 0; r < rows; ++r) {
            for (int i = 0; i < cells_per_row; ++i) {
                std::string name = 'c' + std::to_string(r);
                name += '_';
                name += std::to_string(i);
                const CellId id = db.add_cell(Cell(std::move(name), 7, 1));
                // 7 wide in an 8-site slot: ~12% slack.
                grid.place(db, id,
                           static_cast<SiteCoord>(i * 8 + rng.uniform(0, 1)),
                           static_cast<SiteCoord>(r));
            }
        }
        lp = extract_local_region(
            db, grid,
            Rect{0, 0, static_cast<SiteCoord>(cells_per_row * 8),
                 static_cast<SiteCoord>(rows)});
        compute_minmax_placement(lp);
        target.w = 2;
        target.h = static_cast<SiteCoord>(target_h);
        target.rail_phase = RailPhase::kEven;
        intervals = build_insertion_intervals(lp, target.w);
    }
};

/// Ablation C: §5.1.3 calls the naive permutation enumeration of
/// insertion points "computationally impractical"; time it against the
/// scanline on local regions of growing cell count and target height.
Sheet enumeration(const Ctx& ctx) {
    Sheet s{"Ablation C: scanline vs naive insertion-point enumeration "
            "(paper 5.1.3)",
            {{"Rows"}, {"Cells/row"}, {"h_t"}, {"Local cells"}, {"Points"},
             {"Scanline (us)", 2, true}, {"Naive (us)", 2, true},
             {"Speedup", 1, true}},
            {}};
    struct Size {
        int rows, cells_per_row, target_h;
    };
    static constexpr Size kSizes[] = {{4, 8, 1},  {4, 8, 2},   {4, 8, 3},
                                      {8, 16, 2}, {8, 16, 3},  {12, 24, 2},
                                      {12, 24, 3}};
    EnumerationOptions opts;
    opts.check_rail = false;
    for (const Size& size : kSizes) {
        const Fixture f(size.rows, size.cells_per_row, size.target_h);
        const std::string label = std::to_string(size.rows) + "x" +
                                  std::to_string(size.cells_per_row) +
                                  ", h_t " + std::to_string(size.target_h);
        s.rows.push_back(ctx.repeat(label, [&](int) {
            std::size_t points = 0;
            std::size_t naive_points = 0;
            const double scan_us = us_per_call([&] {
                points = enumerate_insertion_points(f.lp, f.intervals,
                                                    f.target, opts)
                             .points.size();
            });
            const double naive_us = us_per_call([&] {
                naive_points = naive_enumerate_insertion_points(
                                   f.lp, f.intervals, f.target, opts)
                                   .points.size();
            });
            if (naive_points != points) {
                std::cerr << "FATAL: " << ctx.where(label) << ": the scanline "
                          << "enumerates " << points << " points, the naive "
                          << "enumeration " << naive_points << "\n";
                std::exit(1);
            }
            return std::vector<Value>{size.rows, size.cells_per_row,
                                      size.target_h, f.lp.num_cells(),
                                      points, scan_us, naive_us,
                                      ratio(naive_us, scan_us)};
        }));
    }
    return s;
}

// ---------------------------------------------------------------- scaling

/// The paper's runtime claim (§6: over a million cells in under two
/// minutes): wall-clock legalization time over growing designs, since
/// every MLL call touches a constant-size window.
Sheet scaling(const Ctx& ctx) {
    Sheet s{"Runtime scaling (paper 6)",
            {{"Evaluation"}, {"Cells"}, {"Runtime (s)", 3, true},
             {"Cells/s", 0, true}},
            {}};
    for (const std::size_t base : {1000, 4000, 16000, 64000}) {
        GenProfile p;
        p.name = "scaling";
        const std::size_t cells = ctx.cells(base);
        p.num_single = cells * 9 / 10;
        p.num_double = cells / 10;
        p.density = 0.55;
        p.seed = 99;
        GenResult gen = generate_benchmark(p);
        SegmentGrid grid = SegmentGrid::build(gen.db);
        for (const bool exact : {false, true}) {
            if (exact && base > 16000) {
                continue;
            }
            const char* mode = exact ? "exact" : "approximate";
            const std::string label =
                std::string(mode) + ", " + std::to_string(cells) + " cells";
            s.rows.push_back(ctx.repeat(label, [&](int) {
                LegalizerOptions opts;
                opts.mll.exact_evaluation = exact;
                const RunMetrics m =
                    run_legalization(gen.db, grid, opts, ctx.where(label));
                return std::vector<Value>{
                    mode, cells, m.stats.runtime_s,
                    static_cast<double>(cells) / m.stats.runtime_s};
            }));
        }
    }
    return s;
}

// ------------------------------------------------------ registry and report

struct Experiment {
    const char* name;
    Sheet (*run)(const Ctx&);
};

constexpr Experiment kExperiments[] = {
    {"table1", table1},           {"table1_mip", table1_mip},
    {"superblue12", superblue12}, {"ablation_eval", ablation_eval},
    {"window_sweep", window_sweep}, {"baselines", baselines},
    {"heights", heights},         {"fences", fences},
    {"detailed", detailed},       {"enumeration", enumeration},
    {"scaling", scaling}};

std::string usage() {
    std::string u =
        "usage: bench_paper --experiment NAME [--scale F] [--runs N] "
        "[--json PATH]\n  NAME: all";
    for (const Experiment& e : kExperiments) {
        u += " | ";
        u += e.name;
    }
    return u + "\n";
}

/// Checks that every value of `sheet` but a timing repeats in every run,
/// prints the sheet (a timing as its median) and returns its JSON (a
/// timing as its median, min and max).
Json report(const Ctx& ctx, const Sheet& sheet) {
    std::vector<std::string> header;
    Json columns = Json::array();
    for (const Column& col : sheet.columns) {
        header.emplace_back(col.name);
        columns.push(Json::str(col.name));
    }
    Table table(header);
    Json rows = Json::array();
    const auto show = [](const Value& v) {
        return v.is_text ? v.text : format_fixed(v.num, 17);
    };
    for (const Row& row : sheet.rows) {
        std::vector<std::string> cells;
        Json out = Json::object();
        for (std::size_t c = 0; c < sheet.columns.size(); ++c) {
            const Column& col = sheet.columns[c];
            const Value& first = row.runs.front()[c];
            if (col.timing && !first.is_text) {
                std::vector<double> v;
                for (const std::vector<Value>& run : row.runs) {
                    v.push_back(run[c].num);
                }
                std::sort(v.begin(), v.end());
                const std::size_t mid = v.size() / 2;
                const double median =
                    v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
                cells.push_back(format_fixed(median, col.digits));
                Json t = Json::object();
                t.set("median", Json::num(median));
                t.set("min", Json::num(v.front()));
                t.set("max", Json::num(v.back()));
                out.set(col.name, std::move(t));
                continue;
            }
            for (const std::vector<Value>& run : row.runs) {
                if (!(run[c] == first)) {
                    std::cerr << "FATAL: " << ctx.experiment << ": row '"
                              << row.label << "', column '" << col.name
                              << "' differs between runs: " << show(first)
                              << " and " << show(run[c]) << "\n";
                    std::exit(1);
                }
            }
            cells.push_back(first.is_text ? first.text
                                          : format_fixed(first.num,
                                                         col.digits));
            out.set(col.name, first.is_text ? Json::str(first.text)
                                            : Json::num(first.num));
        }
        table.add_row(std::move(cells));
        rows.push(std::move(out));
    }
    std::cout << "\n=== " << sheet.title << " ===\n";
    table.print(std::cout);

    Json j = Json::object();
    j.set("name", Json::str(ctx.experiment));
    j.set("columns", std::move(columns));
    j.set("rows", std::move(rows));
    return j;
}

}  // namespace

int main(int argc, char** argv) {
    const std::string text = usage();
    const cli::Args args(argc, argv, text.c_str(), {},
                         {"--experiment", "--scale", "--runs", "--json"});
    const char* name = args.get("--experiment");
    if (name == nullptr) {
        args.fail("--experiment is required");
    }
    const double scale = args.number("--scale", 1.0);
    if (scale <= 0.0) {
        args.fail("--scale needs a number > 0");
    }
    const int runs = args.count<int>("--runs", 3);
    if (runs < 1) {
        args.fail("--runs needs a whole number >= 1");
    }
    const std::string_view wanted = name;
    std::vector<const Experiment*> chosen;
    for (const Experiment& e : kExperiments) {
        if (wanted == "all" || wanted == e.name) {
            chosen.push_back(&e);
        }
    }
    if (chosen.empty()) {
        args.fail(std::string("unknown experiment '") + name + "'");
    }

    set_log_level(LogLevel::kWarn);
    Json experiments = Json::array();
    for (const Experiment* e : chosen) {
        const Ctx ctx{e->name, scale, runs};
        experiments.push(report(ctx, e->run(ctx)));
    }
    if (const char* path = args.get("--json")) {
        Json root = Json::object();
        root.set("bench", Json::str("bench_paper"));
        root.set("scale", Json::num(scale));
        root.set("runs", Json::num(runs));
        root.set("experiments", std::move(experiments));
        root.set("environment", obs::environment_json());
        if (!write_json_file(path, root)) {
            return 1;
        }
        std::cerr << "wrote " << path << "\n";
    }
    return 0;
}
