/**
 * @file
 * Tests for the hardware barrier: the combining unit, the tree
 * planner/manager, end-to-end rounds, and the comparison against the
 * software (NIC-level) barrier.
 */

#include <gtest/gtest.h>

#include "core/hw_barrier.hh"
#include "core/presets.hh"
#include "scoped_env.hh"
#include "switch/barrier_unit.hh"
#include "workload/kernels.hh"

namespace mdw {
namespace {

TEST(BarrierUnit, CombinesAndEmitsUp)
{
    BarrierUnit unit;
    BarrierSwitchEntry entry;
    entry.expectedPorts = {0, 2, 3};
    entry.upPort = 5;
    unit.configure(7, entry);
    EXPECT_TRUE(unit.participates(7));
    EXPECT_FALSE(unit.participates(8));

    EXPECT_EQ(unit.onArrive(7, 0).group, -1);
    EXPECT_EQ(unit.onArrive(7, 3).group, -1);
    EXPECT_EQ(unit.pendingArrivals(7), 2u);
    const BarrierUnit::Emit emit = unit.onArrive(7, 2);
    EXPECT_EQ(emit.group, 7);
    EXPECT_FALSE(emit.release);
    EXPECT_EQ(emit.upPort, 5);
    // State reset for the next round.
    EXPECT_EQ(unit.pendingArrivals(7), 0u);
    EXPECT_EQ(unit.onArrive(7, 0).group, -1);
}

TEST(BarrierUnit, RootEmitsRelease)
{
    BarrierUnit unit;
    BarrierSwitchEntry entry;
    entry.expectedPorts = {1};
    entry.isRoot = true;
    unit.configure(0, entry);
    const BarrierUnit::Emit emit = unit.onArrive(0, 1);
    EXPECT_EQ(emit.group, 0);
    EXPECT_TRUE(emit.release);
}

TEST(BarrierUnitDeath, UnexpectedPortPanics)
{
    BarrierUnit unit;
    BarrierSwitchEntry entry;
    entry.expectedPorts = {0};
    entry.isRoot = true;
    unit.configure(0, entry);
    EXPECT_DEATH((void)unit.onArrive(0, 4), "unexpected arrival");
    EXPECT_DEATH((void)unit.onArrive(1, 0), "unconfigured");
}

TEST(BarrierUnitDeath, DuplicateArrivalPanics)
{
    BarrierUnit unit;
    BarrierSwitchEntry entry;
    entry.expectedPorts = {0, 1};
    entry.isRoot = true;
    unit.configure(0, entry);
    (void)unit.onArrive(0, 0);
    EXPECT_DEATH((void)unit.onArrive(0, 0), "duplicate arrival");
}

NetworkConfig
barrierNet()
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    return config;
}

TEST(HwBarrier, SingleRoundCompletes)
{
    Network net(barrierNet());
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    DestSet members(net.numHosts());
    for (NodeId m : {0, 3, 7, 12, 15})
        members.set(m);
    const int group = barrier.createGroup(members);

    Cycle done_at = 0;
    barrier.startBarrier(group, [&](Cycle now) { done_at = now; });
    EXPECT_EQ(barrier.pendingBarriers(), 1u);
    net.armWatchdog(20000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_GT(done_at, 0u);
    EXPECT_EQ(barrier.pendingBarriers(), 0u);
    // Every member received exactly one release copy.
    EXPECT_EQ(net.tracker().totalDeliveries(), members.count());
}

TEST(HwBarrier, TokensAreCombinedNotForwardedPerMember)
{
    Network net(barrierNet());
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    DestSet everyone(net.numHosts());
    for (NodeId m = 0; m < 16; ++m)
        everyone.set(m);
    const int group = barrier.createGroup(everyone);
    barrier.startBarrier(group, nullptr);
    net.armWatchdog(20000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));

    // 16 member tokens + 4 combined tokens (one per leaf switch)
    // absorbed at the root = 20 total across all switches; without
    // combining the root alone would see 16.
    std::uint64_t tokens = 0;
    for (std::size_t s = 0; s < net.numSwitches(); ++s) {
        const auto *cb = dynamic_cast<const CentralBufferSwitch *>(
            &net.switchAt(static_cast<SwitchId>(s)));
        ASSERT_NE(cb, nullptr);
        tokens += cb->barrierTokensCombined();
    }
    EXPECT_EQ(tokens, 20u);
}

TEST(HwBarrier, RepeatedRoundsReuseTheTree)
{
    Network net(barrierNet());
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    DestSet members(net.numHosts());
    for (NodeId m : {1, 5, 9, 13})
        members.set(m);
    const int group = barrier.createGroup(members);

    int completions = 0;
    for (int round = 0; round < 5; ++round) {
        barrier.startBarrier(group, [&](Cycle) { ++completions; });
        net.armWatchdog(20000);
        ASSERT_TRUE(net.sim().runUntil(
            [&net] { return net.idle(); }, 100000));
    }
    EXPECT_EQ(completions, 5);
}

TEST(HwBarrier, TwoGroupsOperateIndependently)
{
    Network net(barrierNet());
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    const int a = barrier.createGroup(DestSet::of(16, {0, 1, 2}));
    const int b = barrier.createGroup(DestSet::of(16, {8, 9, 15}));
    int done_a = 0, done_b = 0;
    barrier.startBarrier(a, [&](Cycle) { ++done_a; });
    barrier.startBarrier(b, [&](Cycle) { ++done_b; });
    net.armWatchdog(20000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(done_a, 1);
    EXPECT_EQ(done_b, 1);
}

TEST(HwBarrier, WorksOnIrregularTopology)
{
    NetworkConfig config = barrierNet();
    config.topo = TopologyKind::Irregular;
    config.irregular.switches = 12;
    config.irregular.hosts = 24;
    config.seed = 5;
    Network net(config);
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    DestSet members(net.numHosts());
    for (NodeId m : {0, 5, 11, 17, 23})
        members.set(m);
    const int group = barrier.createGroup(members);
    Cycle done_at = 0;
    barrier.startBarrier(group, [&](Cycle now) { done_at = now; });
    net.armWatchdog(20000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_GT(done_at, 0u);
}

// The manager rides in a WorkloadMix beside open-loop traffic: its
// rounds finish on the tracker's completion of the release, and its
// kNoCycle nextArrival lets every NIC sleep once the background stops.
TEST(HwBarrier, CompletesInAWorkloadMixAndLetsNicsSleep)
{
    // Only the fast path sleeps NICs, so pin it against the suite-wide
    // oracle override (MDW_FAST_PATH=0).
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    NetworkConfig config = barrierNet();
    config.fastPath = true;
    Network net(config);
    HwBarrierManager barrier(net);
    WorkloadParams bg;
    bg.pattern = TrafficPattern::UniformUnicast;
    bg.load = 0.05;
    bg.payloadFlits = 16;
    bg.stopCycle = 400;
    SyntheticTraffic background(net.numHosts(), bg);
    WorkloadMix mix({&barrier, &background});
    net.attachWorkload(&mix);
    net.tracker().setWindow(0, kNoCycle);

    DestSet everyone(net.numHosts());
    for (NodeId m = 0; m < 16; ++m)
        everyone.set(m);
    const int group = barrier.createGroup(everyone);
    net.sim().run(100);
    Cycle done_at = 0;
    barrier.startBarrier(group, [&](Cycle now) { done_at = now; });
    net.armWatchdog(20000);
    ASSERT_TRUE(net.sim().runUntil(
        [&net] { return net.sim().now() >= 400 && net.idle(); },
        100000));
    EXPECT_GT(done_at, 100u);
    EXPECT_EQ(barrier.pendingBarriers(), 0u);
    EXPECT_GT(net.tracker().unicastLatency().count(), 0u);
    // Deregistration may lag quiescence by up to one retire stride.
    net.sim().run(Simulator::kRetireStride + 1);
    EXPECT_EQ(net.sim().activeCount(), 0u);
    net.detachWorkload();
}

TEST(HwBarrier, BeatsTheSoftwareBarrier)
{
    // Full-system barrier: hardware combining vs the NIC-level
    // arrive+release barrier (both using hardware multicast for the
    // release) — the companion paper's headline comparison.
    auto hw = [] {
        Network net(barrierNet());
        HwBarrierManager barrier(net);
        net.attachWorkload(&barrier);
        DestSet everyone(net.numHosts());
        for (NodeId m = 0; m < 16; ++m)
            everyone.set(m);
        const int group = barrier.createGroup(everyone);
        const Cycle start = net.sim().now();
        Cycle done_at = 0;
        barrier.startBarrier(group,
                             [&](Cycle now) { done_at = now; });
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
        return done_at - start;
    }();
    auto sw = [] {
        Network net(barrierNet());
        WorkloadParams params;
        params.kind = WorkloadKind::Collective;
        params.collective = CollectiveOp::Barrier;
        params.rounds = 1;
        CollectiveKernelWorkload kernel(net.numHosts(), params);
        net.attachWorkload(&kernel);
        net.sim().runUntil(
            [&] { return kernel.exhausted() && net.idle(); }, 200000);
        net.detachWorkload();
        return static_cast<Cycle>(kernel.roundCycles().mean());
    }();
    ASSERT_GT(hw, 0u);
    ASSERT_GT(sw, 0u);
    EXPECT_LT(hw, sw);
}

TEST(HwBarrierDeath, RequiresCentralBuffer)
{
    NetworkConfig config = barrierNet();
    config.arch = SwitchArch::InputBuffer;
    Network net(config);
    EXPECT_DEATH(HwBarrierManager barrier(net), "central-buffer");
}

TEST(HwBarrierDeath, DoubleStartPanics)
{
    Network net(barrierNet());
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    const int group = barrier.createGroup(DestSet::of(16, {0, 1}));
    barrier.startBarrier(group, nullptr);
    EXPECT_DEATH(barrier.startBarrier(group, nullptr),
                 "already has a round");
}

} // namespace
} // namespace mdw
