// Known-bad fixture for `tools/mrlg_lint.py effects` (never compiled;
// see tests/test_lint_fixtures.py). A function marked MRLG_EFFECT_READONLY
// reaches mll_commit through a helper — the analyzer must report a
// plan-mutation finding with the two-hop witness chain.

struct Database {
    int cells = 0;
};
struct SegmentGrid {
    int segments = 0;
};
struct MllPlan {
    bool ok = false;
};
struct MllResult {
    bool ok = false;
};

MllResult mll_commit(Database& db, SegmentGrid& grid, int cell,
                     const MllPlan& plan);

namespace mrlg_fixture {

MllPlan plan_and_apply_eagerly(Database& db, SegmentGrid& grid, int cell) {
    MllPlan plan;
    plan.ok = true;
    // The bug under test: the "planning" helper commits immediately.
    mll_commit(db, grid, cell, plan);
    return plan;
}

MRLG_EFFECT_READONLY
MllPlan my_plan(Database& db, SegmentGrid& grid, int cell) {
    return plan_and_apply_eagerly(db, grid, cell);
}

}  // namespace mrlg_fixture
