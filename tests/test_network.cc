/**
 * @file
 * Tests for the network builder: parameter validation, auto-raising
 * of undersized buffers, wiring invariants, and totals.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"

namespace mdw {
namespace {

TEST(NetworkBuilder, RaisesIbBufferToFitWholePackets)
{
    NetworkConfig config = defaultNetwork();
    config.arch = SwitchArch::InputBuffer;
    config.ib.bufferFlits = 10; // far too small
    config.maxPayloadFlits = 128;
    Network net(config);
    // Largest packet = 128 payload + 9-flit multicast header.
    EXPECT_EQ(net.maxPacketFlits(), 137);
    // The raised buffer is reflected in what upstream senders see:
    // a whole worm can be transferred.
    net.nic(0).postMulticast(DestSet::of(64, {9, 33, 61}), 128, 0);
    net.armWatchdog(10000);
    EXPECT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(net.tracker().totalDeliveries(), 3u);
}

TEST(NetworkBuilder, RaisesCbInputFifoToFitHeaders)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 4; // 256 hosts -> 33-flit headers
    config.cb.inputFifoFlits = 8;
    Network net(config);
    EXPECT_EQ(net.mcastHeaderFlits(), 33);
    // Broadcast must decode despite the configured 8-flit FIFO.
    DestSet dests(net.numHosts());
    dests.set(200);
    dests.set(17);
    net.nic(0).postMulticast(dests, 16, 0);
    net.armWatchdog(10000);
    EXPECT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(net.tracker().totalDeliveries(), 2u);
}

TEST(NetworkBuilderDeath, CentralQueueTooSmallIsFatal)
{
    NetworkConfig config = defaultNetwork();
    config.cb.cqChunks = 16; // default packets need 34 chunks
    EXPECT_DEATH(Network net(config), "too small");
}

TEST(NetworkBuilderDeath, MultiportNeedsFatTree)
{
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::Irregular;
    config.nic.encoding = McastEncoding::Multiport;
    EXPECT_DEATH(Network net(config), "multiport encoding requires");
}

TEST(NetworkBuilder, CountsMatchTopology)
{
    NetworkConfig config = defaultNetwork(); // 4-ary 3-tree
    Network net(config);
    EXPECT_EQ(net.numHosts(), 64u);
    EXPECT_EQ(net.numSwitches(), 48u);
    EXPECT_EQ(net.sim().componentCount(), 48u + 64u);
}

TEST(NetworkBuilder, PortTxSnapshotCoversConnectedPorts)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts, 8 switches
    Network net(config);
    // Leaf stage: 4 host ports + 4 up ports; root stage: 4 down
    // ports. 4 leaf switches x 8 + 4 root x 4 = 48 connected ports.
    EXPECT_EQ(net.portTxSnapshot().size(), 48u);
}

TEST(NetworkBuilder, FlitConservationUnderUnicast)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);
    net.nic(0).postUnicast(15, 64, 0); // crosses both stages
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    const NetworkTotals totals = net.totals();
    // No replication: every flit that entered a switch left one.
    EXPECT_EQ(totals.flitsIn, totals.flitsOut);
    EXPECT_EQ(totals.replications, 0u);
}

TEST(NetworkBuilder, ReplicationAddsOutputFlits)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);
    // Broadcast to all 15 others: 14 replications across the tree.
    DestSet everyone(net.numHosts());
    for (NodeId m = 1; m < 16; ++m)
        everyone.set(m);
    net.nic(0).postMulticast(everyone, 32, 0);
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    const NetworkTotals totals = net.totals();
    EXPECT_EQ(totals.replications, 14u);
    EXPECT_GT(totals.flitsOut, totals.flitsIn);
}

TEST(NetworkBuilder, DeterministicAcrossIdenticalBuilds)
{
    auto fingerprint = [] {
        NetworkConfig config = defaultNetwork();
        config.topo = TopologyKind::Irregular;
        config.seed = 77;
        Network net(config);
        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.02;
        traffic.payloadFlits = 32;
        traffic.mcastDegree = 4;
        traffic.stopCycle = 3000;
        SyntheticTraffic source(net.numHosts(), traffic);
        net.attachWorkload(&source);
        net.sim().run(3000);
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
        return net.tracker().mcastLastLatency().mean() +
               static_cast<double>(net.totals().flitsOut);
    };
    EXPECT_DOUBLE_EQ(fingerprint(), fingerprint());
}

} // namespace
} // namespace mdw
