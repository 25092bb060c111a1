/**
 * @file
 * Unit tests for round-robin arbitration.
 */

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "switch/arbiter.hh"

namespace mdw {
namespace {

TEST(RoundRobinArbiter, GrantsNothingWithoutRequests)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.grantFrom({}), -1);
    EXPECT_EQ(arb.totalGrants(), 0u);
}

TEST(RoundRobinArbiter, SingleRequester)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.grantFrom({2}), 2);
    EXPECT_EQ(arb.grantFrom({2}), 2);
}

TEST(RoundRobinArbiter, RotatesUnderFullContention)
{
    RoundRobinArbiter arb(3);
    const std::vector<int> all{0, 1, 2};
    EXPECT_EQ(arb.grantFrom(all), 0);
    EXPECT_EQ(arb.grantFrom(all), 1);
    EXPECT_EQ(arb.grantFrom(all), 2);
    EXPECT_EQ(arb.grantFrom(all), 0);
}

TEST(RoundRobinArbiter, IsFairOverTime)
{
    RoundRobinArbiter arb(4);
    int grants[4] = {};
    const std::vector<int> all{0, 1, 2, 3};
    for (int i = 0; i < 400; ++i)
        ++grants[arb.grantFrom(all)];
    for (int g : grants)
        EXPECT_EQ(g, 100);
}

TEST(RoundRobinArbiter, SkipsIdleRequesters)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.grantFrom({0, 2}), 0);
    EXPECT_EQ(arb.grantFrom({0, 2}), 2);
    EXPECT_EQ(arb.grantFrom({0, 2}), 0);
}

TEST(RoundRobinArbiter, RequesterOrderDoesNotMatter)
{
    RoundRobinArbiter arb(4);
    EXPECT_EQ(arb.grantFrom({3, 1}), 1);
    EXPECT_EQ(arb.grantFrom({1, 3}), 3);
    EXPECT_EQ(arb.grantFrom({3, 0, 1}), 0);
}

TEST(RoundRobinArbiter, ResizeResetsPriority)
{
    RoundRobinArbiter arb(2);
    EXPECT_EQ(arb.grantFrom({0, 1}), 0);
    arb.resize(3);
    EXPECT_EQ(arb.size(), 3);
    EXPECT_EQ(arb.grantFrom({0, 1, 2}), 0);
}

TEST(RoundRobinArbiterDeath, RequesterOutOfRangePanics)
{
    RoundRobinArbiter arb(2);
    EXPECT_DEATH((void)arb.grantFrom({2}), "out of range");
    EXPECT_DEATH((void)arb.grantFrom({-1}), "out of range");
}

// --- Lane partitioning ---------------------------------------------

TEST(LanePartition, SingleLaneCollapsesBothClasses)
{
    EXPECT_EQ(laneClassBase(1, 0), 0);
    EXPECT_EQ(laneClassBase(1, 1), 0);
    EXPECT_EQ(laneClassSize(1, 0), 1);
    EXPECT_EQ(laneClassSize(1, 1), 1);
}

TEST(LanePartition, ClassesTileEveryLaneWithoutOverlap)
{
    for (int lanes = 2; lanes <= kMaxLanes; ++lanes) {
        const int base1 = laneClassBase(lanes, 1);
        EXPECT_EQ(laneClassBase(lanes, 0), 0) << lanes;
        EXPECT_EQ(laneClassSize(lanes, 0), base1) << lanes;
        EXPECT_EQ(laneClassSize(lanes, 1), lanes - base1) << lanes;
        EXPECT_GE(laneClassSize(lanes, 0), 1) << lanes;
        EXPECT_GE(laneClassSize(lanes, 1), 1) << lanes;
    }
}

TEST(LanePartition, StrayClassesClampToNearest)
{
    // A stray traffic class degrades service instead of crashing.
    EXPECT_EQ(laneClassBase(4, 7), laneClassBase(4, 1));
    EXPECT_EQ(laneClassBase(4, -1), laneClassBase(4, 0));
}

// The per-lane switches flatten (port, lane) into one arbiter of
// size N*L. With one lane per port -- or with traffic confined to a
// single lane -- that arbiter must behave exactly like the size-N
// arbiter of the pre-lane switch: requesters at the occupied lane's
// indices rotate identically, which is what keeps lanes=1 runs
// bit-identical to the single-lane implementation.
TEST(LanePartition, FlattenedArbiterEmbedsSingleLaneArbiter)
{
    const int ports = 4, lanes = 3;
    RoundRobinArbiter flat(ports * lanes), narrow(ports);
    std::mt19937 rng(7);
    for (int round = 0; round < 200; ++round) {
        std::vector<int> req, wide;
        for (int p = 0; p < ports; ++p) {
            if ((rng() & 1) != 0) {
                req.push_back(p);
                wide.push_back(p * lanes); // lane 0
            }
        }
        const int got = flat.grantFrom(wide);
        const int ref = narrow.grantFrom(req);
        EXPECT_EQ(got, ref < 0 ? -1 : ref * lanes) << "round " << round;
    }
}

// Starvation check: a lane class that keeps requesting must keep
// being granted even while the other class requests every cycle --
// round-robin arbitration serves flattened (port, lane) requesters
// without bias, so neither partition can lock the other out.
TEST(LanePartition, NeitherClassStarvesUnderContention)
{
    const int lanes = 2; // one port, one lane per class
    RoundRobinArbiter arb(lanes);
    int grants[2] = {};
    for (int i = 0; i < 100; ++i)
        ++grants[arb.grantFrom({0, 1})];
    EXPECT_EQ(grants[0], 50);
    EXPECT_EQ(grants[1], 50);
}

} // namespace
} // namespace mdw
