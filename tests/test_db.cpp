#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "db/database.hpp"
#include "db/name_index.hpp"
#include "test_helpers.hpp"
#include "util/assert.hpp"

namespace mrlg::test {
namespace {

TEST(Floorplan, RectangularConstructor) {
    const Floorplan fp(10, 100);
    EXPECT_EQ(fp.num_rows(), 10);
    EXPECT_EQ(fp.row(3).num_sites, 100);
    EXPECT_EQ(fp.row(3).y, 3);
    EXPECT_EQ(fp.die(), (Rect{0, 0, 100, 10}));
    EXPECT_EQ(fp.free_site_area(), 1000);
}

TEST(Floorplan, RailPhaseAlternates) {
    const Floorplan fp(4, 10);
    EXPECT_EQ(fp.row(0).rail_phase(), RailPhase::kEven);
    EXPECT_EQ(fp.row(1).rail_phase(), RailPhase::kOdd);
    EXPECT_EQ(fp.row(2).rail_phase(), RailPhase::kEven);
}

TEST(Floorplan, BlockageReducesFreeArea) {
    Floorplan fp(10, 100);
    fp.add_blockage(Rect{10, 2, 20, 3});
    EXPECT_EQ(fp.free_site_area(), 1000 - 60);
}

TEST(Floorplan, OverlappingBlockagesNotDoubleCounted) {
    Floorplan fp(10, 100);
    fp.add_blockage(Rect{10, 0, 20, 1});
    fp.add_blockage(Rect{20, 0, 20, 1});  // overlaps [20,30)
    EXPECT_EQ(fp.free_site_area(), 1000 - 30);
}

TEST(Floorplan, BlockageOutsideDieClamped) {
    Floorplan fp(4, 10);
    fp.add_blockage(Rect{-5, -5, 8, 20});  // covers x [0,3) on all rows
    EXPECT_EQ(fp.free_site_area(), 4 * 10 - 4 * 3);
}

TEST(Floorplan, NonContiguousRowAddAsserts) {
    Floorplan fp;
    fp.add_row(Row{0, 0, 10});
    EXPECT_THROW(fp.add_row(Row{2, 0, 10}), AssertionError);
}

TEST(Cell, EvenHeightDetection) {
    EXPECT_FALSE(Cell("a", 2, 1).even_height());
    EXPECT_TRUE(Cell("b", 2, 2).even_height());
    EXPECT_FALSE(Cell("c", 2, 3).even_height());
    EXPECT_TRUE(Cell("d", 2, 4).even_height());
}

TEST(Cell, PlacementLifecycle) {
    Cell c("x", 3, 2);
    EXPECT_FALSE(c.placed());
    c.set_pos(5, 4);
    EXPECT_TRUE(c.placed());
    EXPECT_EQ(c.rect(), (Rect{5, 4, 3, 2}));
    c.unplace();
    EXPECT_FALSE(c.placed());
}

TEST(Database, AddAndFindCells) {
    Database db(Floorplan(4, 50));
    const CellId a = db.add_cell(Cell("a", 2, 1));
    const CellId b = db.add_cell(Cell("b", 3, 2));
    EXPECT_EQ(db.num_cells(), 2u);
    EXPECT_EQ(db.find_cell("a"), a);
    EXPECT_EQ(db.find_cell("b"), b);
    EXPECT_FALSE(db.find_cell("zzz").valid());
}

TEST(Database, DuplicateCellNameAsserts) {
    Database db(Floorplan(4, 50));
    db.add_cell(Cell("a", 2, 1));
    EXPECT_THROW(db.add_cell(Cell("a", 1, 1)), AssertionError);
}

TEST(Database, ZeroSizeCellAsserts) {
    Database db(Floorplan(4, 50));
    EXPECT_THROW(db.add_cell(Cell("bad", 0, 1)), AssertionError);
    EXPECT_THROW(db.add_cell(Cell("bad2", 1, 0)), AssertionError);
}

TEST(Database, NetsAndPins) {
    Database db(Floorplan(4, 50));
    const CellId a = db.add_cell(Cell("a", 2, 1));
    const CellId b = db.add_cell(Cell("b", 3, 1));
    const NetId n = db.add_net("n1");
    const PinId p1 = db.add_pin(a, n, 1.0, 0.5);
    const PinId p2 = db.add_pin(b, n, 0.0, 0.5);
    EXPECT_EQ(db.net(n).degree(), 2u);
    EXPECT_EQ(db.pin(p1).cell, a);
    EXPECT_EQ(db.pin(p2).cell, b);
    EXPECT_EQ(db.cell(a).pins().size(), 1u);
    EXPECT_EQ(db.find_net("n1"), n);
    EXPECT_FALSE(db.find_net("nope").valid());
}

TEST(Database, MovableCellsExcludesFixed) {
    Database db(Floorplan(4, 50));
    db.add_cell(Cell("m", 2, 1));
    Cell fixed("f", 4, 2, RailPhase::kEven, /*fixed=*/true);
    fixed.set_pos(10, 1);
    db.add_cell(std::move(fixed));
    const auto movable = db.movable_cells();
    ASSERT_EQ(movable.size(), 1u);
    EXPECT_EQ(db.cell(movable[0]).name(), "m");
}

TEST(Database, DensityComputation) {
    Database db(Floorplan(10, 100));  // free area 1000
    db.add_cell(Cell("a", 50, 1));
    db.add_cell(Cell("b", 50, 2));  // area 100
    EXPECT_NEAR(db.density(), 150.0 / 1000.0, 1e-12);
}

TEST(Database, SingleAndMultiRowCounts) {
    Database db(Floorplan(10, 100));
    db.add_cell(Cell("a", 2, 1));
    db.add_cell(Cell("b", 2, 2));
    db.add_cell(Cell("c", 2, 3));
    EXPECT_EQ(db.num_single_row_cells(), 1u);
    EXPECT_EQ(db.num_multi_row_cells(), 2u);
}

TEST(Database, FreezeFixedCellsAddsBlockages) {
    Database db(Floorplan(10, 100));
    Cell fixed("macro", 20, 4, RailPhase::kEven, true);
    fixed.set_pos(30, 2);
    db.add_cell(std::move(fixed));
    db.freeze_fixed_cells();
    ASSERT_EQ(db.floorplan().blockages().size(), 1u);
    EXPECT_EQ(db.floorplan().blockages()[0], (Rect{30, 2, 20, 4}));
}

TEST(Database, FreezeUnplacedFixedAsserts) {
    Database db(Floorplan(10, 100));
    db.add_cell(Cell("macro", 20, 4, RailPhase::kEven, true));
    EXPECT_THROW(db.freeze_fixed_cells(), AssertionError);
}

TEST(Database, BadIdAccessAsserts) {
    Database db(Floorplan(4, 50));
    EXPECT_THROW(db.cell(CellId{0}), AssertionError);
    db.add_cell(Cell("a", 1, 1));
    EXPECT_NO_THROW(db.cell(CellId{0}));
    EXPECT_THROW(db.cell(CellId{1}), AssertionError);
    EXPECT_THROW(db.cell(CellId{}), AssertionError);
}

// ---- name index ----------------------------------------------------------

TEST(NameIndex, FindsASliceOfALargerBuffer) {
    Database db(Floorplan(4, 50));
    const CellId id = db.add_cell(Cell("cell42", 2, 1));
    const std::string buffer = "xxcell42 yy";
    EXPECT_EQ(db.find_cell(std::string_view(buffer).substr(2, 6)), id);
    const NetId n = db.add_net("net7");
    EXPECT_EQ(db.find_net(std::string_view(buffer.data() + 1, 1)),
              NetId{});
    EXPECT_EQ(db.find_net(std::string_view("anet7b").substr(1, 4)), n);
}

TEST(NameIndex, AbsentNamesAreNotFound) {
    Database db(Floorplan(4, 50));
    db.add_cell(Cell("cell42", 2, 1));
    db.add_net("net7");
    for (const std::string_view name : {"cell4", "cell421", "", "Cell42"}) {
        EXPECT_FALSE(db.find_cell(name).valid()) << name;
    }
    for (const std::string_view name : {"net", "net77", ""}) {
        EXPECT_FALSE(db.find_net(name).valid()) << name;
    }
    EXPECT_FALSE(Database().find_cell("").valid());
}

TEST(NameIndex, LookupsHoldAcrossEveryGrowth) {
    // Names come from the ids through `names`, as Database provides them.
    std::vector<std::string> names;
    const auto name_of = [&names](std::int32_t id) -> std::string_view {
        return names[static_cast<std::size_t>(id)];
    };
    NameIndex index;
    constexpr int kNames = 200000;
    names.reserve(kNames);
    int growths = 0;
    for (int i = 0; i < kNames; ++i) {
        const std::size_t before = index.capacity();
        names.push_back("s" + std::to_string(i));
        ASSERT_TRUE(index.insert(names.back(), i, name_of));
        if (index.capacity() == before) {
            continue;
        }
        ++growths;
        for (int j = 0; j <= i; ++j) {
            ASSERT_EQ(index.find(names[static_cast<std::size_t>(j)], name_of),
                      j);
        }
        ASSERT_EQ(index.find("s" + std::to_string(i + 1), name_of), -1);
    }
    EXPECT_GE(growths, 15);
    EXPECT_EQ(index.size(), static_cast<std::size_t>(kNames));
    EXPECT_LE(2 * index.size(), index.capacity());
}

TEST(NameIndex, CopiedAndMovedDatabasesFindEveryName) {
    Database db(Floorplan(4, 50));
    for (int i = 0; i < 100; ++i) {
        db.add_cell(Cell("c" + std::to_string(i), 1, 1));
        db.add_net("n" + std::to_string(i));
    }
    const Database copy = db;
    const Database moved = std::move(db);
    for (const Database* d : {&copy, &moved}) {
        for (int i = 0; i < 100; ++i) {
            EXPECT_EQ(d->find_cell("c" + std::to_string(i)), CellId{i});
            EXPECT_EQ(d->find_net("n" + std::to_string(i)), NetId{i});
        }
    }
}

TEST(NameIndex, DuplicateNamesStillAssert) {
    Database db(Floorplan(4, 50));
    db.add_cell(Cell("a", 2, 1));
    db.add_net("n");
    EXPECT_THROW(db.add_cell(Cell("a", 1, 1)), AssertionError);
    EXPECT_THROW(db.add_net("n"), AssertionError);
    EXPECT_EQ(db.num_cells(), 1u);
    EXPECT_EQ(db.nets().size(), 1u);
    EXPECT_EQ(db.find_cell("a"), CellId{0});
}

TEST(NameIndex, BatchedLookupEqualsSingleLookup) {
    Database db(Floorplan(4, 50));
    std::vector<std::string> storage;
    for (int i = 0; i < 300; ++i) {
        db.add_cell(Cell("c" + std::to_string(i), 1, 1));
        storage.push_back("c" + std::to_string((i * 7) % 400));
    }
    storage.emplace_back("");
    storage.emplace_back("c");
    const std::vector<std::string_view> names(storage.begin(),
                                              storage.end());
    // Batches of every size across the kBatch boundary, 0 and 1 included.
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2},
          NameIndex::kBatch - 1, NameIndex::kBatch, NameIndex::kBatch + 1,
          names.size()}) {
        std::vector<CellId> out(n, CellId{12345});
        db.find_cells({names.data(), n}, out);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(out[i], db.find_cell(names[i])) << names[i];
        }
    }
    const std::string_view absent[] = {"zz"};
    CellId one{0};
    Database().find_cells(absent, {&one, 1});
    EXPECT_FALSE(one.valid());
}

TEST(NameIndex, MemoryBreakdownReportsExactIndexBytes) {
    Database db(Floorplan(4, 50));
    for (int i = 0; i < 1000; ++i) {
        db.add_cell(Cell("c" + std::to_string(i), 1, 1));
    }
    db.add_net("n");
    std::size_t name_maps = 0;
    for (const ArenaUsage& a : db.memory_breakdown()) {
        if (a.name == "name_maps") {
            name_maps = a.bytes;
            EXPECT_EQ(a.entries, 1001u);
        }
    }
    EXPECT_EQ(name_maps, (db.cell_index().capacity() +
                          db.net_index().capacity()) *
                             sizeof(NameIndex::Slot));
    EXPECT_EQ(sizeof(NameIndex::Slot), 8u);
}

TEST(NameIndex, PresizeAvoidsRegrowthAndChangesNoLookup) {
    Database db(Floorplan(4, 50));
    db.add_cell(Cell("a", 1, 1));
    db.presize(5000, 10, 20);
    const std::size_t capacity = db.cell_index().capacity();
    EXPECT_GE(capacity, 10000u);
    for (int i = 0; i < 4999; ++i) {
        db.add_cell(Cell("c" + std::to_string(i), 1, 1));
    }
    EXPECT_EQ(db.cell_index().capacity(), capacity);
    EXPECT_EQ(db.find_cell("a"), CellId{0});
    EXPECT_EQ(db.find_cell("c4998"), CellId{4999});
}

}  // namespace
}  // namespace mrlg::test
