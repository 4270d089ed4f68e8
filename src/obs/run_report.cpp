#include "obs/run_report.hpp"

#include <cstring>

#include "eval/report.hpp"
#include "obs/memres.hpp"
#include "util/thread_pool.hpp"

namespace mrlg::obs {

namespace {

const char* to_string(LegalizerOptions::Order order) {
    switch (order) {
        case LegalizerOptions::Order::kInputOrder: return "input";
        case LegalizerOptions::Order::kMultiRowFirst:
            return "multi_row_first";
    }
    return "unknown";
}

Json options_json(const LegalizerOptions& o, bool check_rail,
                  int num_threads) {
    Json j = Json::object();
    j.set("seed", Json::num(static_cast<std::int64_t>(o.seed)));
    j.set("num_threads", Json::num(num_threads));
    j.set("order", Json::str(to_string(o.order)));
    j.set("max_rounds", Json::num(o.max_rounds));
    j.set("free_slot_fallback_round", Json::num(o.free_slot_fallback_round));
    j.set("enable_ripup", Json::boolean(o.enable_ripup));
    j.set("audit", Json::str(mrlg::to_string(o.audit)));
    j.set("rx", Json::num(static_cast<std::int64_t>(o.mll.rx)));
    j.set("ry", Json::num(static_cast<std::int64_t>(o.mll.ry)));
    j.set("check_rail", Json::boolean(check_rail));
    j.set("exact_evaluation", Json::boolean(o.mll.exact_evaluation));
    j.set("use_mip", Json::boolean(o.mll.use_mip));
    j.set("max_points", Json::num(o.mll.max_points));
    return j;
}

Json design_json(const Database& db, const std::string& name) {
    const Floorplan& fp = db.floorplan();
    Json j = Json::object();
    j.set("name", Json::str(name));
    const std::size_t movable = db.movable_cells().size();
    j.set("num_cells", Json::num(db.num_cells()));
    j.set("num_movable", Json::num(movable));
    j.set("num_fixed", Json::num(db.num_cells() - movable));
    j.set("num_single_row", Json::num(db.num_single_row_cells()));
    j.set("num_multi_row", Json::num(db.num_multi_row_cells()));
    j.set("num_nets", Json::num(db.nets().size()));
    j.set("num_pins", Json::num(db.pins().size()));
    j.set("num_rows", Json::num(static_cast<std::int64_t>(fp.num_rows())));
    j.set("num_blockages", Json::num(fp.blockages().size()));
    j.set("density", Json::num(db.density()));
    j.set("site_w_um", Json::num(fp.site_w_um()));
    j.set("site_h_um", Json::num(fp.site_h_um()));
    return j;
}

/// Every LegalizerStats field is surfaced here (the header promises this);
/// wall-clock runtime_s is reported only under a physical clock so that
/// deterministic-mode reports stay byte-for-byte reproducible.
Json stats_json(const LegalizerStats& s, bool include_wall_runtime) {
    Json j = Json::object();
    j.set("success", Json::boolean(s.success));
    j.set("num_cells", Json::num(s.num_cells));
    j.set("direct_placements", Json::num(s.direct_placements));
    j.set("mll_successes", Json::num(s.mll_successes));
    j.set("mll_failures", Json::num(s.mll_failures));
    j.set("fallback_placements", Json::num(s.fallback_placements));
    j.set("ripup_placements", Json::num(s.ripup_placements));
    j.set("unplaced", Json::num(s.unplaced));
    j.set("mll_points_evaluated", Json::num(s.mll_points_evaluated));
    j.set("audits_run", Json::num(s.audits_run));
    j.set("waves", Json::num(s.waves));
    j.set("conflict_requeues", Json::num(s.conflict_requeues));
    j.set("rounds", Json::num(s.rounds));
    if (include_wall_runtime) {
        j.set("runtime_s", Json::num(s.runtime_s));
    }
    return j;
}

Json quality_json(const Database& db, const SegmentGrid& grid,
                  bool check_rail) {
    const QualityReport q = make_quality_report(db, grid, check_rail);
    Json j = Json::object();
    j.set("legal", Json::boolean(q.legal));
    j.set("num_cells", Json::num(q.num_cells));
    j.set("num_unplaced", Json::num(q.num_unplaced));
    j.set("gp_hpwl_m", Json::num(q.gp_hpwl_m));
    j.set("legal_hpwl_m", Json::num(q.legal_hpwl_m));
    j.set("dhpwl_pct", Json::num(q.dhpwl_pct));
    j.set("disp_avg_sites", Json::num(q.disp_avg));
    j.set("disp_median_sites", Json::num(q.disp_median));
    j.set("disp_p95_sites", Json::num(q.disp_p95));
    j.set("disp_max_sites", Json::num(q.disp_max));
    Json hist = Json::array();
    for (const std::size_t b : q.disp_histogram) {
        hist.push(Json::num(b));
    }
    j.set("disp_histogram", std::move(hist));
    Json by_h = Json::array();
    Json count_h = Json::array();
    for (std::size_t h = 0; h < q.disp_by_height.size(); ++h) {
        by_h.push(Json::num(q.disp_by_height[h]));
        count_h.push(Json::num(q.count_by_height[h]));
    }
    j.set("disp_avg_by_height", std::move(by_h));
    j.set("count_by_height", std::move(count_h));
    return j;
}

}  // namespace

Json environment_json() {
    const ThreadPoolConfig tp = ThreadPool::config();
    Json env = Json::object();
    env.set("hardware_threads", Json::num(tp.hardware_threads));
    env.set("default_threads", Json::num(tp.default_threads));
    env.set("pool_workers", Json::num(tp.pool_workers));
    env.set("pool_workers_active", Json::num(tp.pool_workers_active));
    env.set("mrlg_threads_env", Json::boolean(tp.env_override));
    return env;
}

Json make_run_report(const RunReportSpec& spec) {
    Json j = Json::object();
    j.set("schema_version", Json::num(kRunReportSchemaVersion));
    j.set("tool", Json::str(spec.tool));
    j.set("design", Json::str(spec.design));

    Tracer* tracer =
        spec.tracer != nullptr ? spec.tracer : current_tracer();
    const bool deterministic = tracer != nullptr && tracer->deterministic();

    if (spec.options != nullptr) {
        j.set("options", options_json(*spec.options, spec.check_rail,
                                      spec.num_threads));
    }
    if (spec.db != nullptr) {
        j.set("design_stats", design_json(*spec.db, spec.design));
    }
    if (spec.stats != nullptr) {
        j.set("legalizer", stats_json(*spec.stats, !deterministic));
    }
    if (spec.db != nullptr && spec.grid != nullptr) {
        j.set("quality",
              quality_json(*spec.db, *spec.grid, spec.check_rail));
    }
    if (!deterministic) {
        // Omitted in deterministic mode for the same reason runtime_s is:
        // tick-clock reports must be byte-identical across machines.
        j.set("environment", environment_json());

        // Wall-clock-only schema-v2 blocks. Excluded from deterministic
        // reports so goldens stay byte-identical with a timeline
        // installed (tests/test_timeline.cpp proves it).
        const Timeline* timeline = spec.timeline != nullptr
                                       ? spec.timeline
                                       : current_timeline();
        if (timeline != nullptr) {
            j.set("timeline",
                  schedule_report_json(derive_schedule_report(
                      *timeline,
                      ThreadPool::resolve_threads(spec.num_threads))));
        }
        j.set("memory",
              memory_report_json(
                  sample_memory(),
                  spec.db != nullptr ? spec.db->memory_breakdown()
                                     : std::vector<ArenaUsage>{},
                  spec.grid != nullptr ? spec.grid->memory_breakdown()
                                       : std::vector<ArenaUsage>{}));
    }
    if (tracer != nullptr) {
        j.set("metrics", tracer->to_json());
    }
    return j;
}

bool write_run_report(const std::string& path, const RunReportSpec& spec) {
    return write_json_file(path, make_run_report(spec));
}

}  // namespace mrlg::obs
