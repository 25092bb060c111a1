/**
 * @file
 * Behavioral tests of the two switch architectures, driven through
 * single-switch and two-stage networks with scripted traffic.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"

namespace mdw {
namespace {

NetworkConfig
starConfig(SwitchArch arch)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 1; // 4 hosts, 1 switch
    config.arch = arch;
    config.nic.sendOverhead = 0;
    config.nic.recvOverhead = 0;
    return config;
}

/** Run until idle; returns cycles taken. Fails the test on stall. */
Cycle
drain(Network &net, Cycle limit = 50000)
{
    net.armWatchdog(5000);
    const Cycle start = net.sim().now();
    const bool done =
        net.sim().runUntil([&net] { return net.idle(); }, limit);
    EXPECT_TRUE(done) << "network failed to drain";
    return net.sim().now() - start;
}

class BothArches : public ::testing::TestWithParam<SwitchArch>
{
};

TEST_P(BothArches, SingleUnicastDelivers)
{
    Network net(starConfig(GetParam()));
    net.nic(0).postUnicast(2, 32, 0);
    drain(net);
    EXPECT_EQ(net.tracker().totalDeliveries(), 1u);
    EXPECT_EQ(net.tracker().unicastLatency().count(), 1u);
    // 2 header + 32 payload flits, a couple of link hops.
    const double latency = net.tracker().unicastLatency().mean();
    EXPECT_GE(latency, 34.0);
    EXPECT_LE(latency, 60.0);
}

TEST_P(BothArches, MulticastReachesAllBranches)
{
    Network net(starConfig(GetParam()));
    net.nic(1).postMulticast(DestSet::of(4, {0, 2, 3}), 48, 0);
    drain(net);
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
    EXPECT_EQ(net.tracker().mcastLastLatency().count(), 1u);
    const NetworkTotals totals = net.totals();
    // One worm copied to three output ports: two replications.
    EXPECT_EQ(totals.replications, 2u);
    // Only one packet entered the switch.
    EXPECT_EQ(totals.packetsRouted, 1u);
}

TEST_P(BothArches, BlockedBranchDoesNotBlockOthers)
{
    // Node 3 first floods node 1 with a long unicast; node 0 then
    // multicasts to {1, 2}. The branch to 1 must wait behind the
    // unicast, but the branch to 2 must complete long before.
    NetworkConfig config = starConfig(GetParam());
    config.maxPayloadFlits = 512;
    Network net(config);
    net.nic(3).postUnicast(1, 400, 0);
    net.sim().run(50); // blocker owns output 1 before the worm arrives
    net.nic(0).postMulticast(DestSet::of(4, {1, 2}), 32, 50);

    Cycle done2 = 0, done1 = 0;
    auto &tracker = net.tracker();
    net.armWatchdog(5000);
    for (Cycle c = 0; c < 20000 && !net.idle(); ++c) {
        const auto before = tracker.totalDeliveries();
        net.sim().stepOne();
        if (tracker.totalDeliveries() != before) {
            // Something got delivered this cycle.
            if (net.nic(2).stats().packetsDelivered.value() == 1 &&
                done2 == 0) {
                done2 = net.sim().now();
            }
            if (net.nic(1).stats().packetsDelivered.value() == 2 &&
                done1 == 0) {
                done1 = net.sim().now();
            }
        }
    }
    ASSERT_GT(done2, 0u);
    ASSERT_GT(done1, 0u);
    // Asynchronous replication: branch to 2 finishes while branch to
    // 1 is still stuck behind the 400-flit unicast.
    EXPECT_LT(done2 + 200, done1);
}

TEST_P(BothArches, BackToBackPacketsArriveInOrder)
{
    Network net(starConfig(GetParam()));
    for (int i = 0; i < 5; ++i)
        net.nic(0).postUnicast(3, 16, 0);
    drain(net);
    EXPECT_EQ(net.nic(3).stats().packetsDelivered.value(), 5u);
    EXPECT_EQ(net.tracker().totalCompleted(), 5u);
}

TEST_P(BothArches, LanesContendingForOneLinkCountLaneStalls)
{
    // Two lanes, two worms headed out through the same physical
    // link: a class-0 unicast 0 -> 2 on lane 0 and a class-1
    // multicast 1 -> {2, 3} on lane 1. Each cycle the link carries
    // one lane's flit, so the other lane, ready to send, stalls.
    NetworkConfig config = starConfig(GetParam());
    config.sw.lanes = 2;
    Network net(config);
    net.nic(0).postUnicast(2, 64, 0, 0, 0);
    net.nic(1).postMulticast(DestSet::of(4, {2, 3}), 64, 0, 0, 1);
    drain(net);
    EXPECT_GT(net.switchAt(0).stats().laneStallCycles.value(), 0u);
    // One unicast copy plus two multicast copies.
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
    EXPECT_EQ(net.nic(2).stats().packetsDelivered.value(), 2u);
    EXPECT_EQ(net.nic(3).stats().packetsDelivered.value(), 1u);
    // Credits still on the wire at idleness get a moment to land.
    net.sim().runUntil([&net] { return net.checkQuiescent(nullptr); },
                       4096);
    std::string why;
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Arches, BothArches,
                         ::testing::Values(SwitchArch::CentralBuffer,
                                           SwitchArch::InputBuffer));

TEST(CentralBufferSwitch, MulticastStoredOnceNotPerBranch)
{
    NetworkConfig config = starConfig(SwitchArch::CentralBuffer);
    Network net(config);
    auto *cb = dynamic_cast<CentralBufferSwitch *>(&net.switchAt(0));
    ASSERT_NE(cb, nullptr);

    // Broadcast 64 payload flits to 3 nodes: 66 total flits = 9
    // chunks. Per-branch storage would need 27.
    net.nic(0).postMulticast(DestSet::of(4, {1, 2, 3}), 64, 0);
    int peak_chunks = 0;
    std::size_t peak_entries = 0;
    net.armWatchdog(5000);
    while (!net.idle() && net.sim().now() < 20000) {
        net.sim().stepOne();
        peak_chunks = std::max(peak_chunks, cb->cqUsedChunks());
        peak_entries = std::max(peak_entries, cb->cqEntries());
    }
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
    EXPECT_EQ(peak_entries, 1u);
    EXPECT_GE(peak_chunks, 9);
    EXPECT_LE(peak_chunks, 9); // whole-packet reservation, exactly once
}

TEST(CentralBufferSwitch, UnicastBypassesWhenOutputIdle)
{
    Network net(starConfig(SwitchArch::CentralBuffer));
    auto *cb = dynamic_cast<CentralBufferSwitch *>(&net.switchAt(0));
    ASSERT_NE(cb, nullptr);
    net.nic(0).postUnicast(1, 32, 0);
    int peak_chunks = 0;
    while (!net.idle() && net.sim().now() < 10000) {
        net.sim().stepOne();
        peak_chunks = std::max(peak_chunks, cb->cqUsedChunks());
    }
    // The bypass path never touches the central queue.
    EXPECT_EQ(peak_chunks, 0);
    EXPECT_EQ(net.tracker().totalDeliveries(), 1u);
}

TEST(CentralBufferSwitch, ContendingUnicastsQueueInCentralBuffer)
{
    Network net(starConfig(SwitchArch::CentralBuffer));
    auto *cb = dynamic_cast<CentralBufferSwitch *>(&net.switchAt(0));
    ASSERT_NE(cb, nullptr);
    // Three senders target the same output; two must be buffered.
    net.nic(0).postUnicast(3, 64, 0);
    net.nic(1).postUnicast(3, 64, 0);
    net.nic(2).postUnicast(3, 64, 0);
    int peak_chunks = 0;
    net.armWatchdog(5000);
    while (!net.idle() && net.sim().now() < 20000) {
        net.sim().stepOne();
        peak_chunks = std::max(peak_chunks, cb->cqUsedChunks());
    }
    EXPECT_GT(peak_chunks, 0);
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
}

TEST(CentralBufferSwitch, MulticastWaitsForChunkReservation)
{
    NetworkConfig config = starConfig(SwitchArch::CentralBuffer);
    // Shrink the queue so two 66-flit multicasts (9 chunks each)
    // cannot both reserve: 12 chunks total.
    config.cb.cqChunks = 20;
    config.maxPayloadFlits = 64;
    Network net(config);
    net.nic(0).postMulticast(DestSet::of(4, {1, 2}), 64, 0);
    net.nic(3).postMulticast(DestSet::of(4, {1, 2}), 64, 0);
    drain(net);
    EXPECT_EQ(net.tracker().totalDeliveries(), 4u);
    // The second worm must have stalled waiting for its reservation.
    EXPECT_GT(net.totals().reservationStallCycles, 0u);
}

TEST(InputBufferSwitch, HeadOfLineBlockingDelaysUnrelatedPacket)
{
    // In the IB switch, a packet stuck at the buffer head blocks the
    // one behind it even though its own output is idle; the CB
    // switch moves the blocked packet into the central queue and the
    // second one proceeds. Compare arrival of the second packet.
    auto run = [](SwitchArch arch) {
        NetworkConfig config = starConfig(arch);
        config.maxPayloadFlits = 512;
        Network net(config);
        // Node 3 occupies output 1 with a 400-flit unicast and gets a
        // head start so it owns the port before the test packets
        // arrive.
        net.nic(3).postUnicast(1, 400, 0);
        net.sim().run(50);
        // Node 0 sends to 1 (will block), then to 2 (output idle).
        net.nic(0).postUnicast(1, 64, 50);
        net.nic(0).postUnicast(2, 64, 50);
        Cycle arrival2 = 0;
        net.armWatchdog(5000);
        while (!net.idle() && net.sim().now() < 30000) {
            net.sim().stepOne();
            if (arrival2 == 0 &&
                net.nic(2).stats().packetsDelivered.value() == 1) {
                arrival2 = net.sim().now();
            }
        }
        EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
        return arrival2;
    };
    const Cycle cb_arrival = run(SwitchArch::CentralBuffer);
    const Cycle ib_arrival = run(SwitchArch::InputBuffer);
    ASSERT_GT(cb_arrival, 0u);
    ASSERT_GT(ib_arrival, 0u);
    // HOL blocking: the IB switch delivers the second packet only
    // after the 400-flit blocker drains; CB delivers it ~300+ cycles
    // earlier.
    EXPECT_GT(ib_arrival, cb_arrival + 250);
}

TEST(InputBufferSwitch, BufferHoldsWholeBlockedPacket)
{
    NetworkConfig config = starConfig(SwitchArch::InputBuffer);
    config.maxPayloadFlits = 512;
    Network net(config);
    auto *ib = dynamic_cast<InputBufferSwitch *>(&net.switchAt(0));
    ASSERT_NE(ib, nullptr);

    net.nic(3).postUnicast(1, 400, 0); // blocker
    net.sim().run(50);                 // let it own output port 1
    net.nic(0).postMulticast(DestSet::of(4, {1, 2}), 64, 50);
    // Input port 0 belongs to host 0; once its branch to node 1
    // blocks, the whole worm must accumulate in the input buffer.
    int peak = 0;
    net.armWatchdog(5000);
    while (!net.idle() && net.sim().now() < 30000) {
        net.sim().stepOne();
        peak = std::max(peak, ib->inputOccupancy(0));
    }
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
    // 64 payload + 2 unicast/3 mcast header flits: the full worm was
    // resident at some point (whole-packet buffering guarantee).
    EXPECT_GE(peak, 64);
}

TEST(SyncReplication, MulticastDeliversCorrectly)
{
    NetworkConfig config = starConfig(SwitchArch::InputBuffer);
    config.sw.replication = ReplicationMode::Synchronous;
    Network net(config);
    net.nic(1).postMulticast(DestSet::of(4, {0, 2, 3}), 48, 0);
    drain(net);
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
    EXPECT_EQ(net.totals().replications, 2u);
}

TEST(SyncReplication, BlockedBranchBlocksAllBranches)
{
    // The inverse of the asynchronous-replication property: under
    // lock-step forwarding, the branch to the idle node 2 cannot run
    // ahead of the branch stuck behind the 400-flit blocker.
    NetworkConfig config = starConfig(SwitchArch::InputBuffer);
    config.sw.replication = ReplicationMode::Synchronous;
    config.maxPayloadFlits = 512;
    Network net(config);
    net.nic(3).postUnicast(1, 400, 0);
    net.sim().run(50);
    net.nic(0).postMulticast(DestSet::of(4, {1, 2}), 32, 50);

    Cycle done2 = 0, done1 = 0;
    net.armWatchdog(5000);
    while (!net.idle() && net.sim().now() < 30000) {
        net.sim().stepOne();
        if (done2 == 0 &&
            net.nic(2).stats().packetsDelivered.value() == 1)
            done2 = net.sim().now();
        if (done1 == 0 &&
            net.nic(1).stats().packetsDelivered.value() == 2)
            done1 = net.sim().now();
    }
    ASSERT_GT(done2, 0u);
    ASSERT_GT(done1, 0u);
    // Both copies land essentially together, AFTER the blocker.
    EXPECT_GT(done2 + 50, done1);
    EXPECT_GT(done2, 400u);
}

TEST(SyncReplication, DisjointWormsAcquireTheirPortsTogether)
{
    // Two multicasts entering the switch on the same cycle need
    // disjoint output sets, so one arbitration step grants both: the
    // round-robin scan over waiting inputs must not stop at the first
    // winner.
    NetworkConfig config = starConfig(SwitchArch::InputBuffer);
    config.fatTreeK = 8; // 8 hosts, 1 switch
    config.sw.replication = ReplicationMode::Synchronous;
    Network net(config);
    net.nic(0).postMulticast(DestSet::of(8, {2, 3}), 32, 0);
    net.nic(1).postMulticast(DestSet::of(8, {4, 5, 6}), 32, 0);
    drain(net);
    EXPECT_EQ(net.tracker().totalDeliveries(), 5u);
    const Sampler &last = net.tracker().mcastLastLatency();
    ASSERT_EQ(last.count(), 2u);
    EXPECT_EQ(last.min(), last.max());
}

TEST(SyncReplication, RandomTrafficDrains)
{
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        NetworkConfig config = defaultNetwork();
        config.fatTreeK = 4;
        config.fatTreeN = 2;
        config.arch = SwitchArch::InputBuffer;
        config.sw.replication = ReplicationMode::Synchronous;
        config.seed = seed;
        Network net(config);

        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.05;
        traffic.payloadFlits = 32;
        traffic.mcastDegree = 6;
        traffic.seed = seed;
        traffic.stopCycle = 6000;
        SyntheticTraffic source(net.numHosts(), traffic);
        net.attachWorkload(&source);

        net.armWatchdog(30000);
        net.sim().run(6000);
        const bool drained = net.sim().runUntil(
            [&net] { return net.idle(); }, 500000);
        EXPECT_TRUE(drained) << "seed " << seed;
        EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    }
}

TEST(SyncReplicationDeath, CentralBufferRejectsSyncMode)
{
    NetworkConfig config = starConfig(SwitchArch::CentralBuffer);
    config.sw.replication = ReplicationMode::Synchronous;
    EXPECT_DEATH(Network net(config), "inherently asynchronous");
}

TEST(Switches, DeterministicAcrossRuns)
{
    auto run = [](std::uint64_t seed) {
        NetworkConfig config = starConfig(SwitchArch::CentralBuffer);
        config.seed = seed;
        Network net(config);
        net.nic(0).postMulticast(DestSet::of(4, {1, 2, 3}), 40, 0);
        net.nic(2).postUnicast(0, 25, 0);
        net.sim().runUntil([&net] { return net.idle(); }, 20000);
        return net.tracker().mcastLastLatency().mean() +
               net.tracker().unicastLatency().mean();
    };
    EXPECT_DOUBLE_EQ(run(3), run(3));
}

} // namespace
} // namespace mdw
