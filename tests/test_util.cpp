#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.hpp"
#include "util/assert.hpp"
#include "util/geometry.hpp"
#include "util/rng.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

namespace mrlg::test {
namespace {

// ---------------- geometry ----------------

TEST(Span, LengthAndContainment) {
    const Span s{2, 7};
    EXPECT_EQ(s.length(), 5);
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(s.contains(2));
    EXPECT_TRUE(s.contains(6));
    EXPECT_FALSE(s.contains(7));
    EXPECT_TRUE(s.contains(Span{3, 5}));
    EXPECT_FALSE(s.contains(Span{3, 8}));
    EXPECT_TRUE((Span{2, 7}.contains(Span{4, 4})));  // empty span inside
}

TEST(Span, OverlapIsSymmetricAndHalfOpen) {
    EXPECT_TRUE((Span{0, 5}.overlaps(Span{4, 9})));
    EXPECT_TRUE((Span{4, 9}.overlaps(Span{0, 5})));
    EXPECT_FALSE((Span{0, 5}.overlaps(Span{5, 9})));  // touching edges
    EXPECT_FALSE((Span{0, 5}.overlaps(Span{7, 9})));
}

TEST(Span, Intersect) {
    const Span i = intersect(Span{0, 10}, Span{4, 20});
    EXPECT_EQ(i, (Span{4, 10}));
    EXPECT_TRUE(intersect(Span{0, 3}, Span{5, 8}).empty());
}

TEST(Rect, BasicAccessors) {
    const Rect r{1, 2, 10, 3};
    EXPECT_EQ(r.x_hi(), 11);
    EXPECT_EQ(r.y_hi(), 5);
    EXPECT_EQ(r.area(), 30);
    EXPECT_FALSE(r.empty());
    EXPECT_TRUE((Rect{0, 0, 0, 5}.empty()));
}

TEST(Rect, ContainsPointHalfOpen) {
    const Rect r{0, 0, 4, 2};
    EXPECT_TRUE(r.contains(Point{0, 0}));
    EXPECT_TRUE(r.contains(Point{3, 1}));
    EXPECT_FALSE(r.contains(Point{4, 1}));
    EXPECT_FALSE(r.contains(Point{3, 2}));
}

TEST(Rect, ContainsRect) {
    const Rect r{0, 0, 10, 10};
    EXPECT_TRUE(r.contains(Rect{0, 0, 10, 10}));
    EXPECT_TRUE(r.contains(Rect{2, 3, 4, 5}));
    EXPECT_FALSE(r.contains(Rect{-1, 0, 4, 5}));
    EXPECT_FALSE(r.contains(Rect{8, 8, 4, 4}));
}

// ---------------- assert ----------------

TEST(Assert, ThrowsAssertionError) {
    EXPECT_THROW(MRLG_ASSERT(false, "boom"), AssertionError);
    EXPECT_NO_THROW(MRLG_ASSERT(true, "fine"));
}

TEST(Assert, MessageContainsContext) {
    try {
        MRLG_ASSERT(1 == 2, "custom context");
        FAIL() << "should have thrown";
    } catch (const AssertionError& e) {
        EXPECT_NE(std::string(e.what()).find("custom context"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    }
}

// ---------------- rng ----------------

TEST(Rng, DeterministicForSameSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += a.next_u64() == b.next_u64() ? 1 : 0;
    }
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.uniform(-5, 17);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 17);
    }
}

TEST(Rng, UniformSingletonRange) {
    Rng rng(7);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(rng.uniform(3, 3), 3);
    }
}

TEST(Rng, UniformCoversRange) {
    Rng rng(11);
    bool seen[5] = {};
    for (int i = 0; i < 1000; ++i) {
        seen[rng.uniform(0, 4)] = true;
    }
    for (const bool s : seen) {
        EXPECT_TRUE(s);
    }
}

TEST(Rng, Uniform01Bounds) {
    Rng rng(13);
    double mn = 1.0;
    double mx = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform01();
        mn = std::min(mn, v);
        mx = std::max(mx, v);
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
    EXPECT_LT(mn, 0.05);
    EXPECT_GT(mx, 0.95);
}

TEST(Rng, NormalRoughMoments) {
    Rng rng(17);
    double sum = 0.0;
    double sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.normal(3.0, 2.0);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, UniformEmptyRangeAsserts) {
    Rng rng(1);
    EXPECT_THROW(rng.uniform(4, 3), AssertionError);
}

// ---------------- strings ----------------

TEST(Str, SplitDelim) {
    const auto v = split("a,,b", ',');
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[1], "");
    EXPECT_EQ(v[2], "b");
}

TEST(Str, IEquals) {
    EXPECT_TRUE(iequals("CoreRow", "corerow"));
    EXPECT_FALSE(iequals("CoreRow", "corero"));
}

TEST(Str, FormatFixed) {
    EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
    EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

// ---------------- table ----------------

TEST(Table, AlignsAndPrints) {
    Table t({"name", "value"});
    t.add_row({"foo", "1.5"});
    t.add_row({"longer_name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("longer_name"), std::string::npos);
    EXPECT_NE(out.find("value"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RowArityMismatchAsserts) {
    Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only_one"}), AssertionError);
}

}  // namespace
}  // namespace mrlg::test
