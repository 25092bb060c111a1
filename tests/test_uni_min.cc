/**
 * @file
 * Structural, routing, and end-to-end tests for the unidirectional
 * MIN (paper Section 2's other regular topology class).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/presets.hh"
#include "topology/uni_min.hh"

namespace mdw {
namespace {

using Shape = std::pair<int, int>;

class UniMinShapes : public ::testing::TestWithParam<Shape>
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

TEST_P(UniMinShapes, Counts)
{
    UniMin t(k(), n());
    EXPECT_EQ(t.numHosts(), hosts());
    EXPECT_EQ(t.numSwitches(),
              static_cast<std::size_t>(n()) * hosts() / k());
    EXPECT_EQ(t.downLevels(), n());
}

TEST_P(UniMinShapes, InjectAndEjectAreSplit)
{
    UniMin t(k(), n());
    for (std::size_t h = 0; h < t.numHosts(); ++h) {
        const NodeId host = static_cast<NodeId>(h);
        const HostAttach &inj = t.graph().injectAttach(host);
        const HostAttach &ej = t.graph().attach(host);
        EXPECT_EQ(t.stageOf(inj.sw), 0);
        EXPECT_EQ(t.stageOf(ej.sw), n() - 1);
        EXPECT_GE(inj.port, k()); // an input-side port
        EXPECT_LT(ej.port, k());  // an output-side port
        if (n() == 1) {
            EXPECT_EQ(inj.sw, ej.sw);
        }
    }
}

TEST_P(UniMinShapes, NoUpPortsAnywhere)
{
    UniMin t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s)
        EXPECT_TRUE(t.routing().at(static_cast<SwitchId>(s))
                        .upPorts()
                        .empty());
}

TEST_P(UniMinShapes, FirstStageReachesEverythingDisjointly)
{
    UniMin t(k(), n());
    for (int label = 0; label < t.switchesPerStage(); ++label) {
        const SwitchRouting &sr = t.routing().at(t.switchAt(0, label));
        EXPECT_EQ(sr.downReachCount(), t.numHosts());
        DestSet seen(t.numHosts());
        for (PortId c = 0; c < k(); ++c) {
            std::size_t count = 0;
            for (const HostRange &r : sr.downReach(c)) {
                count += static_cast<std::size_t>(r.hi - r.lo);
                EXPECT_EQ(seen.countRange(r.lo, r.hi), 0u);
                seen.setRange(r.lo, r.hi);
            }
            EXPECT_EQ(count, t.numHosts() / k());
        }
        EXPECT_EQ(seen.count(), t.numHosts());
    }
}

TEST_P(UniMinShapes, EveryDownPortIsOneInterval)
{
    // Stage s is level n-1-s of the k-ary n-tree, so each output
    // leads into one subtree: k^(n-1-s) consecutive host ids.
    UniMin t(k(), n());
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        const SwitchRouting &sr = t.routing().at(sw);
        const auto width = static_cast<NodeId>(
            std::llround(std::pow(k(), n() - 1 - t.stageOf(sw))));
        for (PortId p = 0; p < sr.radix(); ++p) {
            if (sr.dir(p) != PortDir::Down)
                continue;
            const HostRanges reach = sr.downReach(p);
            ASSERT_EQ(reach.size(), 1u) << "switch " << s << " port " << p;
            EXPECT_EQ(reach[0].hi - reach[0].lo, width);
        }
    }
}

TEST_P(UniMinShapes, ReachShrinksByKPerStage)
{
    UniMin t(k(), n());
    for (int stage = 0; stage < n(); ++stage) {
        const SwitchRouting &sr =
            t.routing().at(t.switchAt(stage, 0));
        const auto expect = static_cast<std::size_t>(
            std::llround(std::pow(k(), n() - stage)));
        EXPECT_EQ(sr.downReachCount(), expect)
            << "stage " << stage;
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, UniMinShapes,
                         ::testing::Values(Shape{2, 1}, Shape{2, 3},
                                           Shape{4, 2}, Shape{4, 3},
                                           Shape{8, 2}, Shape{3, 3}));

/** Every destination of a worm is covered exactly once, stage by
 *  stage. */
TEST(UniMinRouting, MulticastCoversExactlyOnce)
{
    UniMin t(4, 3);
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const NodeId src = static_cast<NodeId>(rng.below(64));
        DestSet dests(64);
        const std::size_t degree = 1 + rng.below(30);
        while (dests.count() < degree) {
            const auto d = static_cast<NodeId>(rng.below(64));
            if (d != src)
                dests.set(d);
        }
        // Walk stage by stage from the injection switch.
        struct Leg
        {
            SwitchId sw;
            DestSet dests;
        };
        std::vector<Leg> legs{
            {t.graph().injectAttach(src).sw, dests}};
        DestSet delivered(64);
        while (!legs.empty()) {
            const Leg leg = legs.back();
            legs.pop_back();
            const RouteDecision route = t.routing().at(leg.sw).decode(
                leg.dests, RoutingVariant::ReplicateAfterLca);
            ASSERT_FALSE(route.needsUp());
            for (const auto &[port, sub] : route.downBranches) {
                const PortPeer &peer = t.graph().peer(leg.sw, port);
                if (peer.isHost()) {
                    ASSERT_EQ(sub.count(), 1u);
                    ASSERT_FALSE(delivered.test(peer.host));
                    delivered.set(peer.host);
                } else {
                    legs.push_back(Leg{peer.sw, sub});
                }
            }
        }
        EXPECT_EQ(delivered, dests);
    }
}

class UniMinE2e
    : public ::testing::TestWithParam<std::tuple<SwitchArch,
                                                 McastScheme>>
{
};

TEST_P(UniMinE2e, RandomTrafficDrains)
{
    const auto [arch, scheme] = GetParam();
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::UniMin;
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    config.arch = arch;
    config.nic.scheme = scheme;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::Bimodal;
    traffic.load = 0.08;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 6;
    traffic.mcastFraction = 0.3;
    traffic.stopCycle = 8000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(30000);
    net.sim().run(8000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 500000);
    EXPECT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
}

INSTANTIATE_TEST_SUITE_P(
    ArchesAndSchemes, UniMinE2e,
    ::testing::Combine(::testing::Values(SwitchArch::CentralBuffer,
                                         SwitchArch::InputBuffer),
                       ::testing::Values(McastScheme::Hardware,
                                         McastScheme::Software)));

TEST(UniMinE2eSingle, EveryPacketTraversesAllStages)
{
    // Unicast to a neighbor still crosses n stages (no LCA shortcut):
    // zero-load latency is the same for near and far destinations.
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::UniMin;
    config.fatTreeK = 4;
    config.fatTreeN = 3;
    config.nic.sendOverhead = 0;
    auto latency = [&config](NodeId dest) {
        Network net(config);
        net.nic(0).postUnicast(dest, 64, 0);
        net.sim().runUntil([&net] { return net.idle(); }, 10000);
        return net.tracker().unicastLatency().mean();
    };
    EXPECT_DOUBLE_EQ(latency(1), latency(63));
}

TEST(UniMinE2eSingle, MulticastWithMultiportEncoding)
{
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::UniMin;
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.encoding = McastEncoding::Multiport;
    Network net(config);
    net.nic(0).postMulticast(DestSet::of(16, {1, 5, 9, 13}), 32, 0);
    net.armWatchdog(10000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_EQ(net.tracker().totalDeliveries(), 4u);
}

TEST(UniMinE2eSingle, BroadcastStormDrains)
{
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::UniMin;
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.4;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 15;
    traffic.stopCycle = 3000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(3000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 2000000));
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
}

} // namespace
} // namespace mdw
