// Known-bad fixture for `tools/mrlg_lint.py effects` (never compiled). A
// plan-phase parallel_for dispatch without obs::TracerPause: the workers
// would race on the ambient tracer. The analyzer must report
// tracer-pause.

struct Database {
    int cells = 0;
};

namespace mrlg_fixture {

int plan_one(const Database& db, int cell);

void run_plan_wave(const Database& db, int n, int threads) {
    MRLG_OBS_PHASE("plan");
    parallel_for(n, threads, [&](int i) { plan_one(db, i); });
}

int plan_one(const Database& db, int cell) { return db.cells + cell; }

}  // namespace mrlg_fixture
