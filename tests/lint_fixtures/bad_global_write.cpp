// Known-bad fixture for `tools/mrlg_lint.py effects` (never compiled). The
// marked function mutates a namespace-scope global and keeps mutable
// function-local static state — both race under the concurrent plan
// fan-out; the analyzer must report global-state for each.

namespace mrlg_fixture {

int g_plan_calls = 0;

MRLG_EFFECT_READONLY
int counting_plan(int cell) {
    static int fast_path_hits = 0;
    g_plan_calls += 1;
    if (cell == 0) {
        ++fast_path_hits;
    }
    return g_plan_calls + fast_path_hits;
}

}  // namespace mrlg_fixture
