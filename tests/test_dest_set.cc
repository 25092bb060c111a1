/**
 * @file
 * Unit tests for DestSet, parameterized across universe sizes that
 * exercise word boundaries.
 */

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "message/dest_set.hh"

namespace mdw {
namespace {

class DestSetSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DestSetSizes, SetTestClear)
{
    const std::size_t n = GetParam();
    DestSet s(n);
    EXPECT_TRUE(s.empty());
    for (std::size_t i = 0; i < n; i += 3)
        s.set(static_cast<NodeId>(i));
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(s.test(static_cast<NodeId>(i)), i % 3 == 0);
    EXPECT_EQ(s.count(), (n + 2) / 3);
    s.clear(0);
    EXPECT_FALSE(s.test(0));
}

TEST_P(DestSetSizes, ForEachAscending)
{
    const std::size_t n = GetParam();
    DestSet s(n);
    std::vector<NodeId> want;
    for (std::size_t i = 1; i < n; i += 7) {
        s.set(static_cast<NodeId>(i));
        want.push_back(static_cast<NodeId>(i));
    }
    EXPECT_EQ(s.toVector(), want);
    EXPECT_EQ(s.first(), want.empty() ? kInvalidNode : want.front());
}

TEST_P(DestSetSizes, SetOperations)
{
    const std::size_t n = GetParam();
    DestSet a(n), b(n);
    a.set(0);
    if (n > 1)
        a.set(static_cast<NodeId>(n - 1));
    b.set(0);

    EXPECT_TRUE(b.subsetOf(a));
    EXPECT_TRUE(a.intersects(b));

    const DestSet inter = a & b;
    EXPECT_EQ(inter.count(), 1u);
    EXPECT_TRUE(inter.test(0));

    const DestSet uni = a | b;
    EXPECT_EQ(uni.count(), a.count());

    const DestSet diff = a - b;
    EXPECT_FALSE(diff.test(0));
    EXPECT_EQ(diff.count(), a.count() - 1);
}

TEST_P(DestSetSizes, RangeOperationsMatchPerBitLoops)
{
    const std::size_t n = GetParam();
    // Members on both sides of every word edge.
    DestSet pattern(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 5 == 0 || i % 64 == 63)
            pattern.set(static_cast<NodeId>(i));
    }
    std::vector<NodeId> cuts;
    for (std::size_t c : {0, 1, 2, 62, 63, 64, 65, 127, 128, 129, 199,
                          200, 1023, 1024}) {
        if (c <= n)
            cuts.push_back(static_cast<NodeId>(c));
    }
    for (NodeId lo : cuts) {
        for (NodeId hi : cuts) {
            if (lo > hi)
                continue;
            DestSet in(n);
            for (NodeId i = lo; i < hi; ++i)
                in.set(i);
            const std::size_t members = (pattern & in).count();

            DestSet set(n);
            set.setRange(lo, hi);
            EXPECT_EQ(set, in) << lo << ".." << hi;
            DestSet cleared = pattern;
            cleared.clearRange(lo, hi);
            EXPECT_EQ(cleared, pattern - in) << lo << ".." << hi;
            EXPECT_EQ(pattern.countRange(lo, hi), members);
            EXPECT_EQ(pattern.anyInRange(lo, hi), members > 0);
            DestSet copied(n);
            copied.copyRange(pattern, lo, hi);
            EXPECT_EQ(copied, pattern & in) << lo << ".." << hi;
        }
    }
}

TEST_P(DestSetSizes, CountsMatchBitByBitOnRandomSets)
{
    // count() and countRange() against a test() loop on random sets
    // of every density, with random ranges that mostly cross words.
    const std::size_t n = GetParam();
    std::mt19937_64 rng(n);
    for (const double density : {0.01, 0.3, 0.5, 0.9, 1.0}) {
        std::bernoulli_distribution member(density);
        DestSet set(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (member(rng))
                set.set(static_cast<NodeId>(i));
        }
        const auto bits = [&set](NodeId lo, NodeId hi) {
            std::size_t total = 0;
            for (NodeId i = lo; i < hi; ++i)
                total += set.test(i) ? 1 : 0;
            return total;
        };
        const auto size = static_cast<NodeId>(n);
        EXPECT_EQ(set.count(), bits(0, size)) << density;
        std::uniform_int_distribution<NodeId> cut(0, size);
        for (int trial = 0; trial < 200; ++trial) {
            NodeId lo = cut(rng);
            NodeId hi = cut(rng);
            if (lo > hi)
                std::swap(lo, hi);
            EXPECT_EQ(set.countRange(lo, hi), bits(lo, hi))
                << density << ": " << lo << ".." << hi;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, DestSetSizes,
                         ::testing::Values(1, 2, 63, 64, 65, 128, 200,
                                           1024));

TEST(DestSet, OfBuildsLiteralSets)
{
    const DestSet s = DestSet::of(16, {1, 5, 9});
    EXPECT_EQ(s.count(), 3u);
    EXPECT_TRUE(s.test(1));
    EXPECT_TRUE(s.test(5));
    EXPECT_TRUE(s.test(9));
}

TEST(DestSet, EqualityIncludesUniverse)
{
    EXPECT_EQ(DestSet::of(16, {3}), DestSet::of(16, {3}));
    EXPECT_FALSE(DestSet::of(16, {3}) == DestSet::of(32, {3}));
    EXPECT_FALSE(DestSet::of(16, {3}) == DestSet::of(16, {4}));
}

TEST(DestSet, ResetClearsAll)
{
    DestSet s = DestSet::of(100, {0, 50, 99});
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.first(), kInvalidNode);
}

TEST(DestSet, SubsetOfEmptyAndFull)
{
    DestSet empty(64);
    DestSet full(64);
    for (int i = 0; i < 64; ++i)
        full.set(i);
    EXPECT_TRUE(empty.subsetOf(full));
    EXPECT_TRUE(empty.subsetOf(empty));
    EXPECT_FALSE(full.subsetOf(empty));
    EXPECT_FALSE(empty.intersects(full));
}

TEST(DestSet, ContainsOnlyIsExactlyOneMember)
{
    // Universe of three words; the member sits in the middle one so a
    // stray member on either side must be seen.
    DestSet set(150);
    EXPECT_FALSE(set.containsOnly(70)); // empty
    set.set(70);
    EXPECT_TRUE(set.containsOnly(70)); // single
    EXPECT_FALSE(set.containsOnly(71)); // wrong member, same word
    EXPECT_FALSE(set.containsOnly(3)); // wrong member, other word
    set.set(71);
    EXPECT_FALSE(set.containsOnly(70)); // two members, same word
    set.clear(71);
    set.set(149);
    EXPECT_FALSE(set.containsOnly(70)); // two members, later word
    set.clear(149);
    set.set(0);
    EXPECT_FALSE(set.containsOnly(70)); // two members, earlier word
    EXPECT_FALSE(set.containsOnly(0));
}

TEST(DestSetDeath, OutOfRangePanics)
{
    DestSet s(8);
    EXPECT_DEATH(s.set(8), "out of universe");
    EXPECT_DEATH(s.set(-1), "out of universe");
    EXPECT_DEATH((void)s.test(100), "out of universe");
    EXPECT_DEATH(s.setRange(0, 9), "out of universe");
    EXPECT_DEATH((void)s.countRange(5, 4), "out of universe");
}

TEST(DestSetDeath, MismatchedUniversePanics)
{
    DestSet a(8), b(16);
    EXPECT_DEATH(a |= b, "universe mismatch");
    EXPECT_DEATH((void)a.subsetOf(b), "universe mismatch");
}

} // namespace
} // namespace mdw
