// Known-bad fixture for `tools/mrlg_lint.py effects` (never compiled). The
// marked function launders the const contract with const_cast and then
// calls a setter — the analyzer must report const-cast (and the setter
// call as plan-mutation).

struct Cell {
    int x = 0;
    void set_x(int v) { x = v; }
    int width() const { return 1; }
};
struct Database {
    Cell c;
    const Cell& cell(int) const { return c; }
};

namespace mrlg_fixture {

MRLG_EFFECT_READONLY
int sneaky_plan(const Database& db, int cell) {
    const Cell& c = db.cell(cell);
    const_cast<Cell&>(c).set_x(42);
    return c.width();
}

}  // namespace mrlg_fixture
