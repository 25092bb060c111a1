/**
 * @file
 * Unit tests for the sharded-scheduler building blocks: boundary-mode
 * channels, per-shard trace rings, the MDW_SHARDS environment
 * override, and the Network-level per-shard accounting (per-shard
 * totals roll up to the flat totals).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/hw_barrier.hh"
#include "core/network.hh"
#include "core/presets.hh"
#include "sim/channel.hh"
#include "sim/shard_context.hh"
#include "scoped_env.hh"
#include "sim/telemetry.hh"
#include "workload/traffic.hh"

namespace mdw {
namespace {

// ---------------------------------------------------------------------
// Boundary-mode channels
// ---------------------------------------------------------------------

/** Captures boundaryDirty callbacks like the simulator would. */
struct RecordingRegistrar : BoundaryRegistrar
{
    std::vector<std::pair<std::uint32_t, BoundaryChannel *>> dirty;

    void
    boundaryDirty(std::uint32_t srcShard,
                  BoundaryChannel *channel) override
    {
        dirty.emplace_back(srcShard, channel);
    }
};

TEST(BoundaryChannel, SendsStayInvisibleUntilFlush)
{
    RecordingRegistrar reg;
    Channel<int> ch(1);
    ch.setBoundary(&reg, 3);

    ch.send(7, 10);
    ch.send(8, 11);
    // Buffered, not delivered: the receiver-visible queue is empty
    // even past the arrival cycle, but the items still count as in
    // flight (quiescence checks must see them).
    EXPECT_EQ(ch.peek(12), nullptr);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 2u);
    // Exactly one dirty notification for the whole burst.
    ASSERT_EQ(reg.dirty.size(), 1u);
    EXPECT_EQ(reg.dirty[0].first, 3u);
    EXPECT_EQ(reg.dirty[0].second, &ch);

    // The barrier flush makes everything visible at its stamped
    // arrival cycle, in order.
    EXPECT_EQ(ch.flushBoundary(), 2u);
    EXPECT_EQ(ch.nextArrival(), 11u);
    EXPECT_EQ(ch.receive(12), 7);
    EXPECT_EQ(ch.receive(12), 8);

    // The flush rearmed the dirty flag: the next send notifies again.
    ch.send(9, 20);
    EXPECT_EQ(reg.dirty.size(), 2u);
    EXPECT_EQ(ch.flushBoundary(), 1u);
    EXPECT_EQ(ch.receive(21), 9);

    // Reverting restores direct delivery.
    ch.setBoundary(nullptr, 0);
    ch.send(10, 30);
    ASSERT_NE(ch.peek(31), nullptr);
    EXPECT_EQ(reg.dirty.size(), 2u);
}

TEST(BoundaryChannel, CreditGrantsMergeAndFlush)
{
    RecordingRegistrar reg;
    CreditChannel ch(1);
    ch.setBoundary(&reg, 1);

    ch.send(2, 5);
    ch.send(3, 5); // same ready cycle: merged in the mailbox
    ch.send(1, 6);
    // Buffered grants are not yet charged to inFlight(): the counter
    // is shared with the receiving shard, so the sender defers the
    // charge to the (single-threaded) barrier flush.
    EXPECT_EQ(ch.inFlight(), 0);
    EXPECT_EQ(ch.receive(7), 0); // nothing visible before the flush
    ASSERT_EQ(reg.dirty.size(), 1u);

    EXPECT_EQ(ch.flushBoundary(), 2u); // two distinct ready cycles
    EXPECT_EQ(ch.inFlight(), 6);
    EXPECT_EQ(ch.receive(6), 5);
    EXPECT_EQ(ch.receive(7), 1);
    EXPECT_EQ(ch.inFlight(), 0);
}

TEST(BoundaryChannel, LaneTaggedCreditsFlushPerLane)
{
    // Per-lane credit accounting across a shard boundary: grants on
    // the same ready cycle merge only within a lane -- merging across
    // lanes would credit the wrong per-lane counter at the receiver
    // after the barrier flush.
    RecordingRegistrar reg;
    CreditChannel ch(1);
    ch.setBoundary(&reg, 1);

    ch.send(2, 5, /*lane=*/0);
    ch.send(3, 5, /*lane=*/1); // same cycle, different lane: no merge
    ch.send(1, 5, /*lane=*/1); // same cycle, same lane: merges
    EXPECT_EQ(ch.flushBoundary(), 2u); // one entry per lane

    std::vector<int> credits(2, 0);
    EXPECT_EQ(ch.receiveByLane(6, credits), 6);
    EXPECT_EQ(credits[0], 2);
    EXPECT_EQ(credits[1], 4);
    EXPECT_EQ(ch.inFlight(), 0);
}

TEST(BoundaryChannelDeath, HookAndBoundaryAreExclusive)
{
    struct NullHook : ChannelHook<int>
    {
        Cycle onSend(int &, Cycle now) override { return now + 1; }
        void onReceive(const int &) override {}
    };
    RecordingRegistrar reg;
    NullHook hook;
    Channel<int> ch(1);
    ch.setHook(&hook);
    EXPECT_DEATH(ch.setBoundary(&reg, 0), "link hook");
    ch.setHook(nullptr);
    ch.setBoundary(&reg, 0);
    EXPECT_DEATH(ch.setHook(&hook), "boundary mode");
}

// ---------------------------------------------------------------------
// Per-shard trace rings
// ---------------------------------------------------------------------

/** Record one event as if from shard @p shard (-1 = serial). */
void
recordFrom(WormTracer &tracer, int shard, Cycle cycle,
           std::int32_t component, bool atHost)
{
    const int before = shardctx::current;
    shardctx::current = shard;
    tracer.record(WormEvent::HeaderDecode, cycle, 1, 1, component,
                  atHost);
    shardctx::current = before;
}

TEST(ShardedTracer, MergeReproducesFlatOrder)
{
    WormTracer tracer(16);
    tracer.setShards(2);
    // Cycle 5, out of ring order: serial host event first, then
    // switch events from both shards. The flat scheduler would have
    // produced: switches in ascending id, then hosts.
    recordFrom(tracer, -1, 5, 0, true); // NIC 0
    recordFrom(tracer, 1, 5, 3, false); // switch 3 (shard 1)
    recordFrom(tracer, 0, 5, 1, false); // switch 1 (shard 0)
    recordFrom(tracer, 1, 4, 9, false); // earlier cycle, later ring

    EXPECT_EQ(tracer.recorded(), 4u);
    const WormTrace trace = tracer.snapshot();
    ASSERT_EQ(trace.events.size(), 4u);
    EXPECT_EQ(trace.events[0].cycle, 4u);
    EXPECT_EQ(trace.events[0].component, 9);
    EXPECT_EQ(trace.events[1].component, 1); // switch 1 before 3
    EXPECT_EQ(trace.events[2].component, 3);
    EXPECT_TRUE(trace.events[3].atHost); // hosts after switches
    EXPECT_EQ(trace.dropped, 0u);
}

TEST(ShardedTracer, CapacityBoundsTheMergedTail)
{
    WormTracer tracer(4);
    tracer.setShards(2);
    for (Cycle c = 0; c < 10; ++c)
        recordFrom(tracer, static_cast<int>(c % 2), c, 1, false);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const WormTrace trace = tracer.snapshot();
    ASSERT_EQ(trace.events.size(), 4u);
    // The survivors are the most recent events, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(trace.events[i].cycle, 6u + i);
}

// ---------------------------------------------------------------------
// Network-level sharding
// ---------------------------------------------------------------------
//
// Sharding needs the fast path, so tests that expect it engaged build
// their networks with MDW_FAST_PATH unset: the suite-wide oracle
// override (MDW_FAST_PATH=0) would otherwise veto every shard.

TEST(ShardedNetwork, EnvOverrideForcesShardCount)
{
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const ScopedEnv shards("MDW_SHARDS", "2");
    const ScopedEnv threads("MDW_SHARD_THREADS", "1");
    NetworkConfig config = defaultNetwork();
    config.shards = 1;
    Network net(config);
    EXPECT_EQ(net.effectiveShards(), 2u);
    EXPECT_EQ(net.config().shards, 2u);
}

TEST(ShardedNetwork, PerShardTotalsRollUpToFlatTotals)
{
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    NetworkConfig config = defaultNetwork();
    config.fastPath = true;
    config.shards = 4;
    Network net(config);
    ASSERT_EQ(net.effectiveShards(), 4u);

    // Drive cross-shard traffic: every host unicasts to its mirror
    // host, so most worms traverse the (partitioned) upper stages.
    ScriptedTraffic traffic;
    const NodeId hosts = static_cast<NodeId>(net.numHosts());
    for (NodeId n = 0; n < hosts; ++n) {
        MessageSpec spec;
        spec.dest = static_cast<NodeId>(hosts - 1 - n);
        spec.payloadFlits = 32;
        traffic.post(0, n, spec);
    }
    for (NodeId n = 0; n < hosts; ++n)
        net.nic(n).setWorkload(&traffic);
    net.sim().run(5);
    ASSERT_TRUE(net.sim().runUntil([&] { return net.idle(); }, 50000));

    // Rollup: summing the per-shard totals over every shard must
    // reproduce the flat network totals exactly.
    const NetworkTotals flat = net.totals();
    NetworkTotals sum;
    for (std::uint32_t s = 0; s < net.effectiveShards(); ++s) {
        const NetworkTotals part = net.totalsForShard(s);
        sum.flitsIn += part.flitsIn;
        sum.flitsOut += part.flitsOut;
        sum.packetsRouted += part.packetsRouted;
        sum.replications += part.replications;
        sum.reservationStallCycles += part.reservationStallCycles;
    }
    EXPECT_GT(flat.flitsIn, 0u);
    EXPECT_EQ(sum.flitsIn, flat.flitsIn);
    EXPECT_EQ(sum.flitsOut, flat.flitsOut);
    EXPECT_EQ(sum.packetsRouted, flat.packetsRouted);
    EXPECT_EQ(sum.replications, flat.replications);
    EXPECT_EQ(sum.reservationStallCycles,
              flat.reservationStallCycles);

    // Scheduler-side accounting: every component has a home bucket,
    // parallel shards actually stepped, and the mirrored pattern
    // crossed shard boundaries.
    const std::vector<ShardStat> stats = net.shardStats();
    ASSERT_EQ(stats.size(), 5u); // 4 parallel + 1 serial
    std::size_t components = 0;
    std::uint64_t parallelSteps = 0;
    std::uint64_t boundarySends = 0;
    for (std::size_t s = 0; s < stats.size(); ++s) {
        components += stats[s].components;
        if (s < 4)
            parallelSteps += stats[s].steps;
        boundarySends += stats[s].boundarySends;
    }
    EXPECT_EQ(components, net.sim().componentCount());
    EXPECT_GT(parallelSteps, 0u);
    EXPECT_GT(boundarySends, 0u);

    // The partition the network actually used covers every switch.
    EXPECT_EQ(net.shardPlan().switchShard.size(), net.numSwitches());
}

TEST(ShardedNetwork, RequireSerialDissolvesSharding)
{
    // Pin the shard count: the CI shards job runs the whole suite
    // under MDW_SHARDS=4, which would otherwise override config.
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const ScopedEnv shards("MDW_SHARDS", "2");
    NetworkConfig config = defaultNetwork();
    config.fastPath = true;
    config.shards = 2;
    Network net(config);
    ASSERT_EQ(net.effectiveShards(), 2u);
    net.requireSerial("test subsystem");
    EXPECT_EQ(net.effectiveShards(), 0u);
    EXPECT_EQ(net.serialReason(), "test subsystem");

    // The dissolved network still runs: channels are back to direct
    // delivery and the scheduler is the plain fast path.
    ScriptedTraffic traffic;
    MessageSpec spec;
    spec.dest = static_cast<NodeId>(net.numHosts() - 1);
    spec.payloadFlits = 16;
    traffic.post(0, 0, spec);
    for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts()); ++n)
        net.nic(n).setWorkload(&traffic);
    net.sim().run(5);
    ASSERT_TRUE(net.sim().runUntil([&] { return net.idle(); }, 20000));
    EXPECT_EQ(net.nic(static_cast<NodeId>(net.numHosts() - 1))
                  .stats()
                  .packetsDelivered.value(),
              1u);
}

TEST(ShardedNetwork, FlatNetworkHasNoSerialReason)
{
    // A network that never asked for shards has nothing to dissolve:
    // a serial-only subsystem leaves its serial reason empty.
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const ScopedEnv shards("MDW_SHARDS", nullptr);
    NetworkConfig config = defaultNetwork();
    config.shards = 1;
    Network net(config);
    HwBarrierManager barrier(net);
    EXPECT_EQ(net.effectiveShards(), 0u);
    EXPECT_TRUE(net.serialReason().empty()) << net.serialReason();
}

} // namespace
} // namespace mdw
