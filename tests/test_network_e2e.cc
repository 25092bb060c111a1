/**
 * @file
 * End-to-end integration and stress tests: full systems under random
 * traffic across all scheme/architecture/topology/routing-variant
 * combinations, with the deadlock watchdog armed. Every message must
 * complete with exactly one delivery per destination (the tracker
 * panics on duplicates), and the network must drain.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"

namespace mdw {
namespace {

struct E2eCase
{
    SwitchArch arch;
    McastScheme scheme;
    RoutingVariant variant;
    UpPortPolicy upPolicy;
    std::uint64_t seed;
};

void
PrintTo(const E2eCase &c, std::ostream *os)
{
    *os << toString(c.arch) << "/" << toString(c.scheme) << "/"
        << toString(c.variant) << "/" << toString(c.upPolicy)
        << "/seed" << c.seed;
}

class E2eMatrix : public ::testing::TestWithParam<E2eCase>
{
};

TEST_P(E2eMatrix, RandomTrafficDrainsWithoutDeadlock)
{
    const E2eCase &c = GetParam();
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts: fast but multi-stage
    config.arch = c.arch;
    config.nic.scheme = c.scheme;
    config.sw.variant = c.variant;
    config.sw.upPolicy = c.upPolicy;
    config.seed = c.seed;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::Bimodal;
    traffic.load = 0.08;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 6;
    traffic.mcastFraction = 0.3;
    traffic.seed = c.seed * 7 + 1;
    traffic.stopCycle = 8000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(20000);
    net.sim().run(8000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 200000);

    EXPECT_TRUE(drained) << "undrained after generation stopped";
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_GT(source.generated(), 0u);
    EXPECT_EQ(net.tracker().inFlight(), 0u);
    // Every generated message completed (tracker erases completed).
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());

    // Nothing stranded anywhere: buffers empty, all credits home
    // (idle() is message-level; this audits flits and credits too).
    std::string why;
    net.sim().runUntil([&net] { return net.checkQuiescent(nullptr); },
                       4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

std::vector<E2eCase>
buildMatrix()
{
    std::vector<E2eCase> cases;
    for (SwitchArch arch :
         {SwitchArch::CentralBuffer, SwitchArch::InputBuffer}) {
        for (McastScheme scheme :
             {McastScheme::Hardware, McastScheme::Software}) {
            for (RoutingVariant variant :
                 {RoutingVariant::ReplicateAfterLca,
                  RoutingVariant::ReplicateOnUpPath}) {
                for (UpPortPolicy policy :
                     {UpPortPolicy::Adaptive,
                      UpPortPolicy::Deterministic}) {
                    for (std::uint64_t seed : {1ULL, 2ULL}) {
                        cases.push_back(E2eCase{arch, scheme, variant,
                                                policy, seed});
                    }
                }
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllCombos, E2eMatrix,
                         ::testing::ValuesIn(buildMatrix()));

TEST(E2eIrregular, MulticastOnRandomNowDrains)
{
    for (std::uint64_t seed : {3ULL, 11ULL, 42ULL}) {
        NetworkConfig config = defaultNetwork();
        config.topo = TopologyKind::Irregular;
        config.irregular.switches = 12;
        config.irregular.radix = 8;
        config.irregular.hosts = 24;
        config.irregular.extraLinks = 6;
        config.seed = seed;
        Network net(config);

        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.05;
        traffic.payloadFlits = 32;
        traffic.mcastDegree = 8;
        traffic.seed = seed;
        traffic.stopCycle = 5000;
        SyntheticTraffic source(net.numHosts(), traffic);
        net.attachWorkload(&source);

        net.armWatchdog(20000);
        net.sim().run(5000);
        const bool drained =
            net.sim().runUntil([&net] { return net.idle(); }, 200000);
        EXPECT_TRUE(drained) << "seed " << seed;
        EXPECT_FALSE(net.sim().deadlockDetected()) << "seed " << seed;
        EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    }
}

/**
 * Regression for the central-queue buffer-dependency deadlocks: on
 * irregular networks under sustained multicast load, up-phase and
 * down-phase traffic sharing the central queues used to wedge (a)
 * unicast carriers stalling mid-write with the pool exhausted and
 * (b) whole-packet reservations waiting on each other across
 * adjacent stages. The per-output escape chunks and the up-phase
 * reservation headroom must keep every seed live.
 */
class IrregularStress
    : public ::testing::TestWithParam<std::tuple<McastScheme,
                                                 std::uint64_t>>
{
};

TEST_P(IrregularStress, SustainedLoadNeverWedges)
{
    const auto [scheme, seed] = GetParam();
    NetworkConfig config = defaultNetwork();
    config.topo = TopologyKind::Irregular;
    config.irregular.switches = 16;
    config.irregular.radix = 8;
    config.irregular.hosts = 32;
    config.irregular.extraLinks = 8;
    config.nic.scheme = scheme;
    config.seed = seed;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.04; // well past saturation for this NOW
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 6;
    traffic.seed = seed + 100;
    traffic.stopCycle = 8000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(30000);
    net.sim().run(8000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 1000000);
    EXPECT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSeeds, IrregularStress,
    ::testing::Combine(::testing::Values(McastScheme::Hardware,
                                         McastScheme::Software),
                       ::testing::Values(11, 12, 14, 15, 16, 17)));

TEST(E2eStress, HighLoadBroadcastStormStaysCorrect)
{
    // Saturating broadcast load on a small system: the point is not
    // latency but that reservations prevent deadlock and every copy
    // lands exactly once.
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.5; // far beyond saturation with degree 15
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 15; // broadcast
    traffic.stopCycle = 3000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(3000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 2000000);
    EXPECT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    EXPECT_EQ(net.tracker().totalDeliveries(), source.generated() * 15);

    std::string why;
    net.sim().runUntil([&net] { return net.checkQuiescent(nullptr); },
                       4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

TEST(E2eStress, TinyCentralQueueStillDeadlockFree)
{
    // A central queue barely big enough for one worm forces heavy
    // reservation contention.
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 2;
    config.fatTreeN = 3; // 8 hosts, 3 stages
    // 34-flit worms need 5 chunks; 14 is the bare minimum (one worm
    // plus the up-phase headroom and escape chunks).
    config.cb.cqChunks = 14;
    config.maxPayloadFlits = 32;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.2;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 7;
    traffic.stopCycle = 4000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(4000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 2000000);
    EXPECT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
}

/**
 * Copy-conservation invariant: every injected packet is delivered
 * exactly (1 + its replications) times — a switch replication mints
 * one extra copy, nothing else does, and no copy is lost. Checked
 * across architectures, schemes, and topologies after a drained run.
 */
class CopyConservation
    : public ::testing::TestWithParam<
          std::tuple<SwitchArch, McastScheme, TopologyKind>>
{
};

TEST_P(CopyConservation, DeliveriesEqualInjectionsPlusReplications)
{
    const auto [arch, scheme, topo] = GetParam();
    NetworkConfig config = defaultNetwork();
    config.topo = topo;
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.irregular.switches = 10;
    config.irregular.hosts = 16;
    config.arch = arch;
    config.nic.scheme = scheme;
    config.nic.sendOverhead = 10;
    config.nic.recvOverhead = 10;
    Network net(config);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::Bimodal;
    traffic.load = 0.06;
    traffic.payloadFlits = 24;
    traffic.mcastDegree = 5;
    traffic.mcastFraction = 0.4;
    traffic.stopCycle = 5000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(30000);
    net.sim().run(5000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 500000));

    std::uint64_t injected = 0, delivered = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts()); ++n) {
        injected += net.nic(n).stats().packetsInjected.value();
        delivered += net.nic(n).stats().packetsDelivered.value();
    }
    EXPECT_EQ(delivered, injected + net.totals().replications);
    EXPECT_GT(injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CopyConservation,
    ::testing::Combine(::testing::Values(SwitchArch::CentralBuffer,
                                         SwitchArch::InputBuffer),
                       ::testing::Values(McastScheme::Hardware,
                                         McastScheme::Software),
                       ::testing::Values(TopologyKind::FatTree,
                                         TopologyKind::UniMin,
                                         TopologyKind::Irregular)));

TEST(E2eScale, LargeSystemSmokeTest)
{
    // 256 hosts, 4 stages, moderate multicast load.
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 4;
    Network net(config);
    EXPECT_EQ(net.numHosts(), 256u);
    EXPECT_EQ(net.numSwitches(), 256u);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.02;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 16;
    traffic.stopCycle = 2000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(2000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 500000);
    EXPECT_TRUE(drained);
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
}

TEST(E2eLatency, ZeroLoadUnicastLatencyScalesWithDistance)
{
    NetworkConfig config = defaultNetwork(); // 64 hosts, 3 stages
    config.nic.sendOverhead = 0;
    Network net(config);
    // Nearest neighbor (same leaf switch).
    net.nic(0).postUnicast(1, 64, 0);
    net.sim().runUntil([&net] { return net.idle(); }, 10000);
    const double near = net.tracker().unicastLatency().mean();

    NetworkConfig config2 = defaultNetwork();
    config2.nic.sendOverhead = 0;
    Network net2(config2);
    // Opposite corner: needs the root stage.
    net2.nic(0).postUnicast(63, 64, 0);
    net2.sim().runUntil([&net2] { return net2.idle(); }, 10000);
    const double far = net2.tracker().unicastLatency().mean();

    EXPECT_GT(far, near);
    // Wormhole: distance adds per-hop latency, not per-flit.
    EXPECT_LT(far, near + 40.0);
}

TEST(E2eLatency, HwMulticastFasterThanSwAtModerateDegree)
{
    auto lastLatency = [](Scheme scheme) {
        NetworkConfig config = networkFor(scheme);
        Network net(config);
        DestSet dests(net.numHosts());
        for (NodeId d : {3, 9, 17, 22, 35, 41, 52, 60})
            dests.set(d);
        net.nic(0).postMulticast(dests, 64, 0);
        net.sim().runUntil([&net] { return net.idle(); }, 100000);
        return net.tracker().mcastLastLatency().mean();
    };
    const double cb_hw = lastLatency(Scheme::CbHw);
    const double ib_hw = lastLatency(Scheme::IbHw);
    const double sw = lastLatency(Scheme::SwUmin);
    // The headline claim: hardware multidestination worms beat the
    // multi-phase software scheme by a wide margin (the paper reports
    // up to 4x for a single multicast).
    EXPECT_LT(cb_hw * 2.0, sw);
    EXPECT_LT(ib_hw * 2.0, sw);
}

} // namespace
} // namespace mdw
