/**
 * @file
 * Tests for the network builder: parameter validation, auto-raising
 * of undersized buffers, wiring invariants, and totals.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "scoped_env.hh"

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

TEST(NetworkNames, QuiescenceReportNamesChannelsInFlight)
{
    // A 16-host run stopped with flits and credits on every kind of
    // channel: switch-switch data (.ab/.ba) and credits (.cab/.cba),
    // host injection (.inj/.cinj) and ejection (.ej/.cej). Channel
    // names are rendered from the wiring on demand; the report reads
    // exactly as it did when every channel stored its own name.
    const ScopedEnv lanes("MDW_LANES", nullptr);
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);
    net.nic(0).postMulticast(DestSet::of(16, {5, 10, 15}), 8, 0);
    net.nic(6).postUnicast(1, 4, 0);
    net.sim().run(109);

    std::string why;
    EXPECT_FALSE(net.checkQuiescent(&why));
    EXPECT_EQ(why,
              "nic0-sw0.p0.inj: flits in flight; "
              "nic1-sw0.p1.ej: flits in flight; "
              "sw0.p4-sw4.p0.ba: flits in flight; "
              "sw0.p7-sw7.p0.ab: flits in flight; "
              "nic0-sw0.p0.cinj: credits in flight; "
              "nic1-sw0.p1.cej: credits in flight; "
              "sw0.p4-sw4.p0.cba: credits in flight; "
              "sw1.p4-sw4.p1.cab: credits in flight"
              "switch 0 output 1 lane 0 holds 2 outstanding credits; "
              "sw0: central queue holds 1 entries; "
              "sw0: output 1 still streaming; "
              "sw0: output 7 still streaming; "
              "switch 1 output 4 lane 0 holds 2 outstanding credits; "
              "switch 4 output 0 lane 0 holds 3 outstanding credits; "
              "sw4: output 0 still streaming; "
              "nic0: 1 packet(s) still queued for injection; "
              "nic1: packet mid-reassembly at ejection; ");
}

TEST(NetworkNames, LinkLayersKeepTheirChannelNames)
{
    // Each direction's ARQ layer is named after the data channel it
    // guards, lower (switch, port) endpoint first.
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.faultSpec.ber = 1e-3;
    Network net(config);
    std::string names;
    for (SwitchId sw = 0; sw < 8; ++sw) {
        for (PortId port = 0; port < 8; ++port) {
            if (const LinkLayer *layer = net.linkLayer(sw, port))
                names += layer->name() + " ";
        }
    }
    EXPECT_EQ(names,
              "sw0.p4-sw4.p0.ab sw0.p5-sw5.p0.ab sw0.p6-sw6.p0.ab "
              "sw0.p7-sw7.p0.ab sw1.p4-sw4.p1.ab sw1.p5-sw5.p1.ab "
              "sw1.p6-sw6.p1.ab sw1.p7-sw7.p1.ab sw2.p4-sw4.p2.ab "
              "sw2.p5-sw5.p2.ab sw2.p6-sw6.p2.ab sw2.p7-sw7.p2.ab "
              "sw3.p4-sw4.p3.ab sw3.p5-sw5.p3.ab sw3.p6-sw6.p3.ab "
              "sw3.p7-sw7.p3.ab sw0.p4-sw4.p0.ba sw1.p4-sw4.p1.ba "
              "sw2.p4-sw4.p2.ba sw3.p4-sw4.p3.ba sw0.p5-sw5.p0.ba "
              "sw1.p5-sw5.p1.ba sw2.p5-sw5.p2.ba sw3.p5-sw5.p3.ba "
              "sw0.p6-sw6.p0.ba sw1.p6-sw6.p1.ba sw2.p6-sw6.p2.ba "
              "sw3.p6-sw6.p3.ba sw0.p7-sw7.p0.ba sw1.p7-sw7.p1.ba "
              "sw2.p7-sw7.p2.ba sw3.p7-sw7.p3.ba ");
}

} // namespace
} // namespace mdw
