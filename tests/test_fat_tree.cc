/**
 * @file
 * Structural and reachability tests for the k-ary n-tree builder,
 * parameterized over (k, n).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "topology/fat_tree.hh"

namespace mdw {
namespace {

using Shape = std::pair<int, int>; // (k, n)

class FatTreeShapes : public ::testing::TestWithParam<Shape>
{
  protected:
    int k() const { return GetParam().first; }
    int n() const { return GetParam().second; }

    std::size_t
    hosts() const
    {
        return static_cast<std::size_t>(
            std::llround(std::pow(k(), n())));
    }
};

TEST_P(FatTreeShapes, Counts)
{
    FatTree t(k(), n());
    EXPECT_EQ(t.numHosts(), hosts());
    EXPECT_EQ(t.numSwitches(),
              static_cast<std::size_t>(n()) * hosts() / k());
    EXPECT_EQ(t.switchesPerLevel(), static_cast<int>(hosts()) / k());
    EXPECT_EQ(t.downLevels(), n());
}

TEST_P(FatTreeShapes, PortDirections)
{
    FatTree t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        const int level = t.levelOf(sw);
        for (PortId p = 0; p < k(); ++p)
            EXPECT_EQ(t.portDir(sw, p), PortDir::Down);
        for (PortId p = static_cast<PortId>(k()); p < 2 * k(); ++p) {
            EXPECT_EQ(t.portDir(sw, p), level + 1 < n()
                                            ? PortDir::Up
                                            : PortDir::Unused);
        }
    }
}

TEST_P(FatTreeShapes, LeafSwitchesOwnConsecutiveHosts)
{
    FatTree t(k(), n());
    for (std::size_t h = 0; h < t.numHosts(); ++h) {
        const HostAttach &at =
            t.graph().attach(static_cast<NodeId>(h));
        EXPECT_EQ(t.levelOf(at.sw), 0);
        EXPECT_EQ(t.labelOf(at.sw), static_cast<int>(h) / k());
        EXPECT_EQ(at.port, static_cast<PortId>(h % k()));
    }
}

TEST_P(FatTreeShapes, DownReachPartitionsHostsAtEverySwitch)
{
    FatTree t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchRouting &sr =
            t.routing().at(static_cast<SwitchId>(s));
        DestSet seen(t.numHosts());
        for (PortId p = 0; p < k(); ++p) {
            for (const HostRange &r : sr.downReach(p)) {
                EXPECT_LT(r.lo, r.hi);
                // Fat-tree subtrees are disjoint.
                EXPECT_EQ(seen.countRange(r.lo, r.hi), 0u);
                seen.setRange(r.lo, r.hi);
            }
        }
        // Each switch at level l reaches exactly k^(l+1) hosts down.
        const std::size_t expect =
            static_cast<std::size_t>(std::llround(std::pow(
                k(), t.levelOf(static_cast<SwitchId>(s)) + 1)));
        EXPECT_EQ(seen.count(), expect);
        EXPECT_EQ(sr.downReachCount(), expect);
    }
}

TEST_P(FatTreeShapes, EveryDownPortIsOneInterval)
{
    // A down port leads into one subtree, and a subtree's hosts carry
    // consecutive ids, so its reach is a single [lo, hi) run of
    // k^level hosts (level 0 = the host port itself).
    FatTree t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        const SwitchRouting &sr = t.routing().at(sw);
        const auto width = static_cast<NodeId>(
            std::llround(std::pow(k(), t.levelOf(sw))));
        for (PortId p = 0; p < sr.radix(); ++p) {
            if (sr.dir(p) != PortDir::Down)
                continue;
            const HostRanges reach = sr.downReach(p);
            ASSERT_EQ(reach.size(), 1u) << "switch " << s << " port " << p;
            EXPECT_EQ(reach[0].hi - reach[0].lo, width);
            EXPECT_EQ(reach[0].lo % width, 0);
        }
    }
}

TEST_P(FatTreeShapes, RootStageReachesEveryHost)
{
    FatTree t(k(), n());
    for (int label = 0; label < t.switchesPerLevel(); ++label) {
        const SwitchRouting &sr =
            t.routing().at(t.switchAt(n() - 1, label));
        EXPECT_EQ(sr.downReachCount(), t.numHosts());
        EXPECT_TRUE(sr.upPorts().empty());
    }
}

TEST_P(FatTreeShapes, NonRootSwitchesHaveKUpPorts)
{
    FatTree t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        const SwitchRouting &sr = t.routing().at(sw);
        if (t.levelOf(sw) + 1 < n())
            EXPECT_EQ(sr.upPorts().size(), static_cast<std::size_t>(k()));
        else
            EXPECT_TRUE(sr.upPorts().empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FatTreeShapes,
                         ::testing::Values(Shape{2, 1}, Shape{2, 3},
                                           Shape{4, 1}, Shape{4, 2},
                                           Shape{4, 3}, Shape{4, 4},
                                           Shape{8, 2}, Shape{3, 3}));

TEST(FatTree, LevelsFor)
{
    EXPECT_EQ(FatTree::levelsFor(4, 1), 1);
    EXPECT_EQ(FatTree::levelsFor(4, 4), 1);
    EXPECT_EQ(FatTree::levelsFor(4, 5), 2);
    EXPECT_EQ(FatTree::levelsFor(4, 16), 2);
    EXPECT_EQ(FatTree::levelsFor(4, 64), 3);
    EXPECT_EQ(FatTree::levelsFor(4, 65), 4);
    EXPECT_EQ(FatTree::levelsFor(2, 1024), 10);
}

TEST(FatTree, DescribeMentionsShape)
{
    FatTree t(4, 3);
    const std::string d = t.describe();
    EXPECT_NE(d.find("4-ary 3-tree"), std::string::npos);
    EXPECT_NE(d.find("64 hosts"), std::string::npos);
}

TEST(FatTree, SwitchAtRoundTripsLevelAndLabel)
{
    FatTree t(4, 3);
    for (int level = 0; level < 3; ++level) {
        for (int label = 0; label < t.switchesPerLevel(); ++label) {
            const SwitchId sw = t.switchAt(level, label);
            EXPECT_EQ(t.levelOf(sw), level);
            EXPECT_EQ(t.labelOf(sw), label);
        }
    }
}

} // namespace
} // namespace mdw
