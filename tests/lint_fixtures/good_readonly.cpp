// Known-good fixture for `tools/mrlg_lint.py effects` (never compiled). A
// well-behaved planning closure: const receivers everywhere, scratch
// passed explicitly, thread_local allowed, dispatch pauses the tracer.
// The analyzer must report nothing.

struct Cell {
    int width() const { return 2; }
};
struct Database {
    Cell c;
    const Cell& cell(int) const { return c; }
    int num_cells() const { return 1; }
};
struct Scratch {
    int buffer[16];
};

namespace mrlg_fixture {

int measure(const Database& db, int cell, Scratch* scratch) {
    thread_local Scratch fallback;
    Scratch& s = scratch ? *scratch : fallback;
    s.buffer[0] = db.cell(cell).width();
    return s.buffer[0];
}

MRLG_EFFECT_READONLY
int clean_plan(const Database& db, int cell, Scratch* scratch) {
    int total = 0;
    for (int i = 0; i < db.num_cells(); ++i) {
        total += measure(db, cell, scratch);
    }
    return total;
}

void run_plan_wave(const Database& db, int n, int threads) {
    MRLG_OBS_PHASE("plan");
    obs::TracerPause pause;
    parallel_for(n, threads, [&](int i) {
        Scratch scratch;
        clean_plan(db, i, &scratch);
    });
}

}  // namespace mrlg_fixture
