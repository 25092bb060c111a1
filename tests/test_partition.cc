/**
 * @file
 * Unit tests for the deterministic switch partitioner: full coverage,
 * balance, degenerate shapes, and determinism.
 */

#include <gtest/gtest.h>

#include <vector>

#include "topology/fat_tree.hh"
#include "topology/irregular.hh"
#include "topology/partition.hh"

namespace mdw {
namespace {

void
checkPlan(const PortGraph &graph, std::size_t shards)
{
    const ShardPlan plan = makeShardPlan(graph, shards);
    ASSERT_EQ(plan.shards, shards);
    ASSERT_EQ(plan.switchShard.size(), graph.numSwitches());

    // Total coverage: every switch lands in a valid shard.
    for (std::uint32_t s : plan.switchShard)
        EXPECT_LT(s, shards);

    // countIn agrees with the assignment vector.
    std::size_t total = 0;
    for (std::uint32_t s = 0; s < shards; ++s)
        total += plan.countIn(s);
    EXPECT_EQ(total, graph.numSwitches());
}

TEST(Partition, FatTreeCutIsExact)
{
    for (std::size_t shards : {2u, 3u, 4u, 8u}) {
        FatTree t(4, 3); // 64 hosts, 48 switches
        checkPlan(t.graph(), shards);
    }
}

TEST(Partition, IrregularCutIsExact)
{
    for (std::uint64_t seed : {1u, 7u, 42u}) {
        IrregularTopology t(IrregularParams{}, Rng(seed));
        for (std::size_t shards : {2u, 4u})
            checkPlan(t.graph(), shards);
    }
}

TEST(Partition, EdgeSwitchHostLoadIsBalanced)
{
    FatTree t(4, 3); // 16 leaf switches x 4 hosts
    const ShardPlan plan = makeShardPlan(t.graph(), 4);
    // Each shard should serve ~16 of the 64 hosts; the cumulative-cut
    // rule makes the split exact for uniform leaves.
    std::vector<std::size_t> hosts(4, 0);
    for (std::size_t h = 0; h < t.numHosts(); ++h) {
        const HostAttach &at =
            t.graph().attach(static_cast<NodeId>(h));
        hosts[plan.switchShard[static_cast<std::size_t>(at.sw)]] += 1;
    }
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(hosts[s], 16u) << "shard " << s;
    // And no shard is starved of switches.
    for (std::uint32_t s = 0; s < 4; ++s)
        EXPECT_GT(plan.countIn(s), 0u) << "shard " << s;
}

TEST(Partition, OneShardDegeneratesToFlat)
{
    FatTree t(4, 2);
    const ShardPlan plan = makeShardPlan(t.graph(), 1);
    for (std::uint32_t s : plan.switchShard)
        EXPECT_EQ(s, 0u);
}

TEST(Partition, MoreShardsThanSwitchesIsValid)
{
    FatTree t(2, 2); // 4 hosts, 4 switches
    const std::size_t shards = 16;
    checkPlan(t.graph(), shards);
    const ShardPlan plan = makeShardPlan(t.graph(), shards);
    // Surplus shards stay empty; every switch still has a home.
    std::size_t populated = 0;
    for (std::uint32_t s = 0; s < shards; ++s)
        populated += plan.countIn(s) > 0 ? 1 : 0;
    EXPECT_LE(populated, t.numSwitches());
    EXPECT_GE(populated, 1u);
}

TEST(Partition, PlanIsDeterministic)
{
    IrregularTopology t(IrregularParams{}, Rng(99));
    const ShardPlan a = makeShardPlan(t.graph(), 4);
    const ShardPlan b = makeShardPlan(t.graph(), 4);
    EXPECT_EQ(a.switchShard, b.switchShard);
}

} // namespace
} // namespace mdw
