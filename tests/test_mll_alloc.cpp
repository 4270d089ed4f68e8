/// Allocation budget of one MLL attempt. This binary replaces the global
/// operator new/delete with counting versions, so it must stay a binary
/// of its own: a warm mll_plan call with a reused MllScratch may allocate
/// only the returned plan's move list, however many local cells or
/// insertion points the attempt has.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "io/benchmark_gen.hpp"
#include "legalize/legalizer.hpp"
#include "legalize/mll.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace {

std::atomic<std::size_t> allocations{0};

void* counted_alloc(std::size_t n, std::size_t align = 0) {
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (n == 0) {
        n = 1;
    }
    void* p = align == 0
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(n);
    } catch (...) {
        return nullptr;
    }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
    std::free(p);
}

namespace mrlg::test {
namespace {

/// A legalized ~5k-cell design with single- to quad-height cells.
struct AllocDesign {
    Database db;
    SegmentGrid grid;
};

AllocDesign legalized_design() {
    GenProfile p;
    p.num_single = 4400;
    p.num_double = 450;
    p.num_triple = 80;
    p.num_quad = 70;
    p.density = 0.75;
    p.seed = 5;
    p.num_blockages = 3;
    p.blockage_area_frac = 0.03;
    GenResult gen = generate_benchmark(p);
    AllocDesign d{std::move(gen.db), {}};
    d.grid = SegmentGrid::build(d.db);
    const LegalizerStats stats = legalize_placement(d.db, d.grid, {});
    MRLG_ASSERT(stats.success, "alloc-test design must legalize");
    return d;
}

struct Sample {
    std::size_t allocations = 0;
    MllPlan plan;
};

/// Lifts `c` out of the grid, plans its re-insertion at its global
/// placement with `scratch` (counting allocations of that call only),
/// and puts it back.
Sample plan_counted(AllocDesign& d, CellId c, const MllOptions& opts,
                    MllScratch& scratch) {
    const SiteCoord x = d.db.cell(c).x();
    const SiteCoord y = d.db.cell(c).y();
    d.grid.remove(d.db, c);
    Sample s;
    const std::size_t before = allocations.load();
    s.plan = mll_plan(d.db, d.grid, c, d.db.cell(c).gp_x(),
                      d.db.cell(c).gp_y(), opts, &scratch);
    s.allocations = allocations.load() - before;
    d.grid.place(d.db, c, x, y);
    return s;
}

/// The only allocation a warm attempt may make: the move list.
std::size_t budget(const MllPlan& plan) { return plan.moves.empty() ? 0 : 1; }

class MllAlloc : public ::testing::TestWithParam<bool> {};

TEST_P(MllAlloc, WarmPlanAllocatesOnlyTheMoveList) {
    AllocDesign d = legalized_design();
    MllOptions opts;
    opts.num_threads = 1;
    opts.exact_evaluation = GetParam();
    const std::vector<CellId> movable = d.db.movable_cells();
    const std::size_t stride = movable.size() / 120;

    MllScratch scratch;
    std::size_t min_cells = ~std::size_t{0};
    std::size_t max_cells = 0;
    std::size_t max_points = 0;
    std::size_t placed = 0;
    for (std::size_t i = 0; i < movable.size(); i += stride) {
        const CellId c = movable[i];
        static_cast<void>(plan_counted(d, c, opts, scratch));  // warm-up
        const Sample s = plan_counted(d, c, opts, scratch);
        EXPECT_LE(s.allocations, budget(s.plan))
            << "cell " << c << ": " << s.plan.num_local_cells
            << " local cells, " << s.plan.num_points << " points";
        if (s.plan.success()) {
            ++placed;
            min_cells = std::min(min_cells, s.plan.num_local_cells);
            max_cells = std::max(max_cells, s.plan.num_local_cells);
            max_points = std::max(max_points, s.plan.num_points);
        }
    }
    // The bound held across problems of very different size.
    EXPECT_GT(placed, 100u);
    EXPECT_GT(max_cells, 2 * min_cells);
    EXPECT_GT(max_points, 50u);

    // Once warmed on every sample, the scratch is at its high-water
    // capacity: a second pass in a new order stays within budget too.
    for (std::size_t i = movable.size(); i-- > 0;) {
        if (i % stride != 0) {
            continue;
        }
        const Sample s = plan_counted(d, movable[i], opts, scratch);
        EXPECT_LE(s.allocations, budget(s.plan)) << "cell " << movable[i];
    }
}

INSTANTIATE_TEST_SUITE_P(Evaluator, MllAlloc, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                             return info.param ? std::string("Exact")
                                               : std::string("Approx");
                         });

}  // namespace
}  // namespace mrlg::test
