/**
 * @file
 * Fault injection and recovery: fault plans, fault-aware rerouting,
 * NIC retransmission, partial-completion accounting, the quiescence
 * audit, and the non-aborting deadlock watchdog diagnosis.
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/resilience.hh"

namespace mdw {
namespace {

/** First @p count switch-switch links of @p topo, one per physical
 *  link, in deterministic (switch, port) order. */
std::vector<std::pair<SwitchId, PortId>>
firstLinks(const Topology &topo, std::size_t count)
{
    std::vector<std::pair<SwitchId, PortId>> links;
    const PortGraph &graph = topo.graph();
    for (std::size_t s = 0;
         s < graph.numSwitches() && links.size() < count; ++s) {
        const SwitchId a = static_cast<SwitchId>(s);
        for (PortId p = 0;
             p < graph.radix(a) && links.size() < count; ++p) {
            const PortPeer &peer = graph.peer(a, p);
            if (peer.isSwitch() &&
                std::make_pair(a, p) <= std::make_pair(peer.sw, peer.port))
                links.emplace_back(a, p);
        }
    }
    return links;
}

TEST(FaultPlan, RandomDrawIsDeterministicAndDistinct)
{
    std::vector<std::pair<SwitchId, int>> links;
    for (int i = 0; i < 12; ++i)
        links.emplace_back(static_cast<SwitchId>(i / 4), i % 4 + 4);
    std::vector<SwitchId> switches{0, 1, 2, 3};

    FaultSpec spec;
    spec.links = 5;
    spec.switches = 2;
    spec.start = 100;
    spec.end = 900;
    spec.seed = 7;

    FaultPlan a = FaultPlan::random(spec, links, switches);
    FaultPlan b = FaultPlan::random(spec, links, switches);
    ASSERT_EQ(a.events.size(), 7u);
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].when, b.events[i].when);
        EXPECT_EQ(a.events[i].sw, b.events[i].sw);
        EXPECT_EQ(a.events[i].port, b.events[i].port);
        EXPECT_GE(a.events[i].when, spec.start);
        EXPECT_LE(a.events[i].when, spec.end);
    }
    // Distinct components per kind.
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        for (std::size_t j = i + 1; j < a.events.size(); ++j) {
            if (a.events[i].kind != a.events[j].kind)
                continue;
            EXPECT_FALSE(a.events[i].sw == a.events[j].sw &&
                         a.events[i].port == a.events[j].port)
                << "duplicate fault target at " << i << "," << j;
        }
    }
}

/**
 * Acceptance: a link failure in the middle of sustained multicast
 * traffic. The fabric reroutes around the dead link, truncated worms
 * are poisoned and dropped end-to-end, the NICs retransmit, and every
 * message still completes at every (still reachable — here: all)
 * destination. The network must end quiescent.
 */
TEST(Resilience, LinkFailureMidMulticastRecoversViaRetransmission)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    config.nic.retransmitTimeout = 3000;

    // Kill two of leaf 0's four up links while traffic is flowing.
    {
        FatTree scratch(4, 2);
        const auto links = firstLinks(scratch, 2);
        ASSERT_EQ(links.size(), 2u);
        FaultEvent e;
        e.kind = FaultKind::LinkDown;
        e.when = 1200;
        e.sw = links[0].first;
        e.port = links[0].second;
        config.faultPlan.add(e);
        e.when = 1700;
        e.sw = links[1].first;
        e.port = links[1].second;
        config.faultPlan.add(e);
    }

    Network net(config);
    ASSERT_NE(net.resilience(), nullptr);

    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.12;
    traffic.payloadFlits = 48;
    traffic.mcastDegree = 8;
    traffic.seed = 9;
    traffic.stopCycle = 4000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(4000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 500000);

    ASSERT_TRUE(drained) << "undrained after fault recovery";
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.resilience()->faultsApplied(), 2u);
    EXPECT_GT(source.generated(), 0u);

    // Every destination is still reachable (two of four redundant up
    // links survive), so every message must complete *fully* — any
    // truncated copy must have been retransmitted.
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);
    EXPECT_EQ(net.tracker().unreachableDests(), 0u);
    EXPECT_EQ(net.tracker().inFlight(), 0u);

    // The faults must actually have bitten: flits tombstoned at the
    // dead ports and whole messages re-sent by their source NICs.
    std::uint64_t retransmits = 0, poisoned_drops = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts()); ++n) {
        retransmits += net.nic(n).stats().retransmits.value();
        poisoned_drops += net.nic(n).stats().poisonedDrops.value();
    }
    EXPECT_GT(retransmits, 0u);
    EXPECT_GT(net.resilience()->poisonedPackets(), 0u);
    (void)poisoned_drops;

    // The survivors drained completely: buffers empty, credits home.
    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

/**
 * Acceptance: a destination made unroutable with retransmission
 * disabled must produce a structured watchdog diagnosis — including a
 * dumpState() capture — instead of a hang or an abort.
 */
TEST(Resilience, UnroutableDestinationTripsWatchdogWithDiagnosis)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    config.nic.retransmitTimeout = 0; // no host-level recovery
    config.telemetry.trace = true;    // diagnosis carries the trace

    // Host 15's leaf switch dies shortly after the worm launches.
    FatTree scratch(4, 2);
    const SwitchId doomed = scratch.graph().attach(15).sw;
    ASSERT_NE(doomed, scratch.graph().attach(0).sw);
    FaultEvent e;
    e.kind = FaultKind::SwitchDown;
    e.when = 60;
    e.sw = doomed;
    config.faultPlan.add(e);

    Network net(config);
    DestSet dests(net.numHosts());
    dests.set(5);
    dests.set(15);
    net.nic(0).postMulticast(dests, 64, 0);

    net.armWatchdog(2000);
    net.sim().run(30000);

    EXPECT_TRUE(net.sim().deadlockDetected());
    const WatchdogDiagnosis *diag = net.watchdogDiagnosis();
    ASSERT_NE(diag, nullptr);
    EXPECT_GE(diag->messagesInFlight, 1u);
    EXPECT_NE(diag->stateDump.find("network state at cycle"),
              std::string::npos);
    EXPECT_GT(diag->cycle, 60u);
    // The worm tracer's recent history rides along with the dump.
    EXPECT_NE(diag->traceJson.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(diag->traceJson.find("\"inject\""), std::string::npos);
    // The copy toward the dead leaf was written off in the fabric.
    EXPECT_GE(net.resilience()->faultsApplied(), 1u);
}

/**
 * Rerouting alone (no retransmission) carries traffic posted *after*
 * a link failure: the rebuilt up*-down* tables route around the dead
 * link and every new message completes fully.
 */
TEST(Resilience, TrafficAfterLinkFailureRoutesAroundIt)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.retransmitTimeout = 0;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    ASSERT_EQ(links.size(), 1u);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 5;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);

    Network net(config);
    net.armWatchdog(30000);
    net.sim().run(20); // let the fault land first

    // Every host is still reachable from every other.
    for (NodeId h = 0; h < static_cast<NodeId>(net.numHosts()); ++h) {
        EXPECT_EQ(net.resilience()->reachableFrom(h).count(),
                  net.numHosts())
            << "host " << h;
    }

    // Multicasts from hosts on the degraded leaf, after the fault.
    std::size_t posted = 0;
    for (NodeId src : {0, 1, 2, 3}) {
        DestSet dests(net.numHosts());
        for (NodeId d : {4, 7, 9, 12, 15}) {
            if (d != src)
                dests.set(d);
        }
        net.nic(src).postMulticast(dests, 32, net.sim().now());
        ++posted;
    }
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
    ASSERT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), posted);
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);

    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

/**
 * A dead switch takes its hosts with it: sends toward them are
 * written off as unreachable (partial completion, no hang), sends
 * *from* them are dropped at the dead NIC, and the per-host
 * reachability sets shrink accordingly.
 */
TEST(Resilience, SwitchDeathWritesOffItsHosts)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.retransmitTimeout = 2000;

    FatTree scratch(4, 2);
    const SwitchId doomed = scratch.graph().attach(15).sw;
    FaultEvent e;
    e.kind = FaultKind::SwitchDown;
    e.when = 10;
    e.sw = doomed;
    config.faultPlan.add(e);

    Network net(config);
    net.armWatchdog(30000);
    net.sim().run(20);
    ASSERT_TRUE(net.resilience()->switchDead(doomed));

    // Hosts 12..15 share the doomed leaf; the rest survive.
    const DestSet &from0 = net.resilience()->reachableFrom(0);
    EXPECT_EQ(from0.count(), net.numHosts() - 4);
    EXPECT_FALSE(from0.test(15));
    EXPECT_TRUE(from0.test(11));
    EXPECT_TRUE(net.resilience()->reachableFrom(15).empty());

    // A multicast spanning live and dead hosts completes partially.
    DestSet dests(net.numHosts());
    dests.set(5);
    dests.set(14);
    dests.set(15);
    net.nic(0).postMulticast(dests, 32, net.sim().now());
    // A post *from* a dead host is written off entirely.
    net.nic(15).postUnicast(3, 32, net.sim().now());

    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
    ASSERT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), 0u);
    EXPECT_EQ(net.tracker().partialCompleted(), 2u);
    EXPECT_EQ(net.tracker().unreachableDests(), 3u);
}

/** A degraded link still delivers everything, just more slowly. */
TEST(Resilience, DegradedLinkDeliversEverything)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 4);
    ASSERT_EQ(links.size(), 4u);
    // Degrade every up link of leaf 0 so the slowdown is unavoidable.
    for (const auto &[sw, port] : links) {
        FaultEvent e;
        e.kind = FaultKind::LinkDegrade;
        e.when = 5;
        e.sw = sw;
        e.port = port;
        e.factor = 4;
        config.faultPlan.add(e);
    }

    Network net(config);
    net.armWatchdog(50000);
    net.sim().run(20);

    DestSet dests(net.numHosts());
    for (NodeId d : {4, 9, 14})
        dests.set(d);
    net.nic(0).postMulticast(dests, 64, net.sim().now());
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 200000);
    ASSERT_TRUE(drained);
    EXPECT_EQ(net.tracker().totalCompleted(), 1u);
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);

    // Same send on an intact network is strictly faster.
    NetworkConfig intact = defaultNetwork();
    intact.fatTreeK = 4;
    intact.fatTreeN = 2;
    Network net2(intact);
    net2.nic(0).postMulticast(dests, 64, 0);
    net2.sim().runUntil([&net2] { return net2.idle(); }, 200000);
    EXPECT_GT(net.tracker().mcastLastLatency().mean(),
              net2.tracker().mcastLastLatency().mean());
}

/** Faulted runs are exactly reproducible (same spec, same numbers). */
TEST(Resilience, FaultedExperimentIsDeterministic)
{
    NetworkConfig network = defaultNetwork();
    network.fatTreeK = 4;
    network.fatTreeN = 2;
    network.faultSpec.links = 2;
    network.faultSpec.start = 1500;
    network.faultSpec.end = 2500;
    network.faultSpec.seed = 3;
    network.nic.retransmitTimeout = 2500;

    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.08;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 6;

    ExperimentParams params;
    params.warmup = 1000;
    params.measure = 3000;
    params.drainLimit = 100000;
    params.watchdogQuiet = 50000;

    ExperimentResult a = Experiment(network, traffic, params).run();
    ExperimentResult b = Experiment(network, traffic, params).run();
    EXPECT_TRUE(identicalResults(a, b));
    EXPECT_EQ(a.faultsApplied(), 2u);
    EXPECT_TRUE(a.drained);
    EXPECT_FALSE(a.deadlocked);
    EXPECT_TRUE(a.quiescent);
}

/** Fault machinery also holds up on the input-buffer architecture. */
TEST(Resilience, InputBufferArchitectureRecoversToo)
{
    NetworkConfig config = defaultNetwork();
    config.arch = SwitchArch::InputBuffer;
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    config.nic.retransmitTimeout = 3000;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 2);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 1200;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);
    e.when = 1700;
    e.sw = links[1].first;
    e.port = links[1].second;
    config.faultPlan.add(e);

    Network net(config);
    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.12;
    traffic.payloadFlits = 48;
    traffic.mcastDegree = 8;
    traffic.seed = 9;
    traffic.stopCycle = 4000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(4000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 500000);
    ASSERT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);

    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

/** Software multicast (U-Min carriers) also recovers: lost carriers
 *  are retransmitted by the original source. */
TEST(Resilience, SoftwareSchemeRecoversLostCarriers)
{
    NetworkConfig config = networkFor(Scheme::SwUmin);
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    config.nic.retransmitTimeout = 4000;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 2);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 1500;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);

    Network net(config);
    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.10;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 8;
    traffic.seed = 5;
    traffic.stopCycle = 4000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(4000);
    const bool drained =
        net.sim().runUntil([&net] { return net.idle(); }, 500000);
    ASSERT_TRUE(drained);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    EXPECT_EQ(net.tracker().inFlight(), 0u);
}

// --- Watchdog semantics under the idle-skipping fast path ----------

/** Sleeps forever after its first step; work never progresses. */
class WedgedComponent : public Component
{
  public:
    using Component::Component;
    void step(Cycle) override {}
    Cycle nextWork(Cycle) override { return kNoCycle; }
};

/**
 * The fast path may never skip past the cycle where the watchdog
 * would trip: a wedged system must be diagnosed at exactly the same
 * cycle whether or not the tick set is empty.
 */
TEST(Resilience, WatchdogTripCycleIdenticalUnderFastPath)
{
    Cycle trippedAt[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        Simulator sim;
        WedgedComponent wedged("wedged");
        sim.add(&wedged);
        sim.setFastPath(mode == 1);
        bool fired = false;
        sim.setWatchdog(500, [] { return true; },
                        [&fired] { fired = true; });
        sim.run(100000);
        EXPECT_TRUE(fired);
        EXPECT_TRUE(sim.deadlockDetected());
        trippedAt[mode] = sim.now();
    }
    EXPECT_EQ(trippedAt[0], trippedAt[1]);
}

/**
 * The flip side: a fully-idle tick set with pending work that is
 * merely *waiting* (here: a long software send overhead, i.e. an
 * in-flight transfer whose completion time is known analytically) is
 * progress, not a hang. The watchdog must stay quiet, every component
 * must actually have deregistered mid-wait, and the quiescence settle
 * must still converge once the message drains.
 */
TEST(Resilience, IdleTickSetWithPendingWorkIsNotAHang)
{
    NetworkConfig config = defaultNetwork();
    config.fastPath = true;
    config.nic.sendOverhead = 5000;
    Network net(config);
    net.armWatchdog(20000);
    net.nic(0).postUnicast(1, 16, 0);

    // Mid-overhead: nothing ticks, yet the network is not idle.
    net.sim().run(2500);
    EXPECT_FALSE(net.idle());
    EXPECT_FALSE(net.sim().deadlockDetected());
    if (net.sim().fastPath()) {
        EXPECT_EQ(net.sim().activeCount(), 0u);
    }

    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 100000));
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.nic(1).stats().packetsDelivered.value(), 1u);

    std::string why;
    net.sim().runUntil([&net] { return net.checkQuiescent(nullptr); },
                       4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
    if (net.sim().fastPath()) {
        // Deregistration may lag quiescence by one retire stride.
        net.sim().run(Simulator::kRetireStride);
        EXPECT_EQ(net.sim().activeCount(), 0u);
    }
}

/**
 * Retransmission timers are the other "analytical in-flight" state:
 * with faults killing deliveries, sleeping NICs must still wake at
 * their retry deadlines and the run must end exactly as the
 * cycle-accurate oracle says it does.
 */
TEST(Resilience, RetransmitTimersFireFromSleep)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.retransmitTimeout = 2000;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 700;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);

    std::uint64_t completed[2] = {0, 0};
    std::uint64_t retransmits[2] = {0, 0};
    Cycle finished[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
        NetworkConfig c = config;
        c.fastPath = mode == 1;
        Network net(c);
        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.08;
        traffic.payloadFlits = 32;
        traffic.mcastDegree = 4;
        traffic.seed = 11;
        traffic.stopCycle = 2000;
        SyntheticTraffic source(net.numHosts(), traffic);
        net.attachWorkload(&source);

        net.armWatchdog(50000);
        net.sim().run(2000);
        ASSERT_TRUE(net.sim().runUntil(
            [&net] { return net.idle(); }, 500000));
        EXPECT_FALSE(net.sim().deadlockDetected());
        net.sim().runUntil(
            [&net] { return net.checkQuiescent(nullptr); }, 4096);
        std::string why;
        EXPECT_TRUE(net.checkQuiescent(&why)) << why;
        completed[mode] = net.tracker().totalCompleted();
        for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts());
             ++n)
            retransmits[mode] += net.nic(n).stats().retransmits.value();
        finished[mode] = net.sim().now();
    }
    EXPECT_EQ(completed[0], completed[1]);
    EXPECT_EQ(retransmits[0], retransmits[1]);
    EXPECT_EQ(finished[0], finished[1]);
}

// --- Transient-fault edge cases (link-level retry subsystem) -------

/**
 * A retry-exhaustion escalation racing a planned fail-stop on the
 * same link must be a no-op the second time around: the fault is
 * counted once, applied once, and the run carries on.
 */
TEST(Resilience, EscalationOnAlreadyDeadLinkIsNoOp)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    // A vanishing BER instantiates the link layers without actually
    // corrupting anything in this short run.
    config.faultSpec.ber = 1e-15;
    config.nic.retransmitTimeout = 2500;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    ASSERT_EQ(links.size(), 1u);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 10;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);

    Network net(config);
    net.armWatchdog(30000);
    net.sim().run(20);
    EXPECT_EQ(net.resilience()->faultsApplied(), 1u);

    // The fail-stop reached both directions' ARQ layers.
    LinkLayer *fwd = net.linkLayer(e.sw, static_cast<PortId>(e.port));
    ASSERT_NE(fwd, nullptr);
    EXPECT_TRUE(fwd->dead());
    const PortPeer &peer =
        net.topology().graph().peer(e.sw, static_cast<PortId>(e.port));
    LinkLayer *rev = net.linkLayer(peer.sw, peer.port);
    ASSERT_NE(rev, nullptr);
    EXPECT_TRUE(rev->dead());

    // A late escalation report for the same link (e.g. a replayed
    // flit timing out just as the planned fault landed) is absorbed.
    net.resilience()->escalateLink(e.sw, e.port, net.sim().now());
    net.sim().run(10);
    EXPECT_EQ(net.resilience()->faultsApplied(), 1u);

    // Traffic still flows around the dead link.
    DestSet dests(net.numHosts());
    for (NodeId d : {5, 9, 14})
        dests.set(d);
    net.nic(0).postMulticast(dests, 32, net.sim().now());
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_EQ(net.tracker().totalCompleted(), 1u);
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);
}

/** A fault scheduled for cycle 0 applies before any flit moves. */
TEST(Resilience, CycleZeroFaultIsValid)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    FaultEvent e;
    e.kind = FaultKind::LinkDown;
    e.when = 0;
    e.sw = links[0].first;
    e.port = links[0].second;
    config.faultPlan.add(e);

    Network net(config);
    net.armWatchdog(30000);
    net.nic(0).postUnicast(13, 32, 0);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_EQ(net.resilience()->faultsApplied(), 1u);
    EXPECT_FALSE(net.sim().deadlockDetected());
    EXPECT_EQ(net.tracker().totalCompleted(), 1u);

    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

/** A flap window opening at cycle 0 (link born flapping) is legal:
 *  the retry layer rides it out from the very first traversal. */
TEST(Resilience, CycleZeroFlapWindowIsValid)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.retransmitTimeout = 2500;

    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    FlapWindow flap;
    flap.sw = links[0].first;
    flap.port = links[0].second;
    flap.start = 0;
    flap.end = 12; // well inside the default retry budget
    config.faultPlan.flaps.push_back(flap);

    Network net(config);
    ASSERT_NE(net.linkLayer(flap.sw, static_cast<PortId>(flap.port)),
              nullptr);
    net.armWatchdog(30000);
    DestSet dests(net.numHosts());
    for (NodeId d : {4, 9, 14})
        dests.set(d);
    net.nic(0).postMulticast(dests, 32, 0);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_EQ(net.tracker().totalCompleted(), 1u);
    EXPECT_EQ(net.resilience()->linkEscalations(), 0u);

    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

/**
 * The full escalation handoff: a retry-exhaustion report schedules a
 * fail-stop LinkDown, rerouting kicks in, both directions' layers go
 * dead, and the report from the opposite direction deduplicates.
 */
TEST(Resilience, EscalationHandsOffToFailStopMachinery)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.faultSpec.ber = 1e-15; // instantiate the link layers
    config.nic.retransmitTimeout = 2500;

    Network net(config);
    net.armWatchdog(30000);
    FatTree scratch(4, 2);
    const auto links = firstLinks(scratch, 1);
    const SwitchId sw = links[0].first;
    const PortId port = links[0].second;

    net.resilience()->escalateLink(sw, port, 5);
    EXPECT_EQ(net.resilience()->linkEscalations(), 1u);
    net.sim().run(20);
    EXPECT_EQ(net.resilience()->faultsApplied(), 1u);
    EXPECT_TRUE(net.linkLayer(sw, port)->dead());
    const PortPeer &peer = net.topology().graph().peer(sw, port);
    EXPECT_TRUE(net.linkLayer(peer.sw, peer.port)->dead());

    // The other direction's layer reporting the same physical link
    // must not schedule a second fault.
    net.resilience()->escalateLink(peer.sw, peer.port,
                                   net.sim().now());
    net.sim().run(10);
    EXPECT_EQ(net.resilience()->linkEscalations(), 1u);
    EXPECT_EQ(net.resilience()->faultsApplied(), 1u);

    // Rerouting still delivers everything.
    DestSet dests(net.numHosts());
    for (NodeId d : {5, 9, 14})
        dests.set(d);
    net.nic(0).postMulticast(dests, 32, net.sim().now());
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 200000));
    EXPECT_EQ(net.tracker().totalCompleted(), 1u);

    // The diagnosis dump (what a watchdog trip captures) reports the
    // per-direction ARQ state: replay-buffer occupancy, sequence
    // numbers, last-NAK cycle, and the escalated link.
    FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    net.dumpState(tmp);
    std::rewind(tmp);
    std::string dump;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
        dump.append(buf, got);
    std::fclose(tmp);
    EXPECT_NE(dump.find("link layers"), std::string::npos);
    EXPECT_NE(dump.find("unacked"), std::string::npos);
    EXPECT_NE(dump.find("last NAK"), std::string::npos);
    EXPECT_NE(dump.find("escalated/dead"), std::string::npos);
}

/** Transient schedules draw deterministically and within bounds. */
TEST(FaultPlan, TransientDrawIsDeterministic)
{
    std::vector<std::pair<SwitchId, int>> links;
    for (int i = 0; i < 12; ++i)
        links.emplace_back(static_cast<SwitchId>(i / 4), i % 4 + 4);

    FaultSpec spec;
    spec.ber = 2e-4;
    spec.residual = 0.05;
    spec.flaps = 3;
    spec.start = 100;
    spec.end = 900;
    spec.flapMin = 50;
    spec.flapMax = 200;
    spec.seed = 11;

    FaultPlan a, b;
    a.drawTransients(spec, links);
    b.drawTransients(spec, links);
    EXPECT_EQ(a.ber, spec.ber);
    EXPECT_EQ(a.residual, spec.residual);
    ASSERT_EQ(a.flaps.size(), 3u);
    for (std::size_t i = 0; i < a.flaps.size(); ++i) {
        EXPECT_EQ(a.flaps[i].sw, b.flaps[i].sw);
        EXPECT_EQ(a.flaps[i].port, b.flaps[i].port);
        EXPECT_EQ(a.flaps[i].start, b.flaps[i].start);
        EXPECT_EQ(a.flaps[i].end, b.flaps[i].end);
        EXPECT_GE(a.flaps[i].start, spec.start);
        EXPECT_LE(a.flaps[i].start, spec.end);
        const Cycle dur = a.flaps[i].end - a.flaps[i].start;
        EXPECT_GE(dur, spec.flapMin);
        EXPECT_LE(dur, spec.flapMax);
    }
    // Distinct links.
    for (std::size_t i = 0; i < a.flaps.size(); ++i)
        for (std::size_t j = i + 1; j < a.flaps.size(); ++j)
            EXPECT_FALSE(a.flaps[i].sw == a.flaps[j].sw &&
                         a.flaps[i].port == a.flaps[j].port);
}

/**
 * End-to-end integrity acceptance: under sustained BER with residual
 * (CRC-evading) errors, every completed multicast was verified — the
 * tainted copies were discarded at the NIC checksum and re-sent — and
 * nothing leaks.
 */
TEST(Resilience, ResidualErrorsAreCaughtEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.faultSpec.ber = 2e-3;
    config.faultSpec.residual = 0.2;
    config.nic.retransmitTimeout = 2500;

    Network net(config);
    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.08;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 6;
    traffic.seed = 13;
    traffic.stopCycle = 3000;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.armWatchdog(50000);
    net.sim().run(3000);
    ASSERT_TRUE(
        net.sim().runUntil([&net] { return net.idle(); }, 500000));
    EXPECT_FALSE(net.sim().deadlockDetected());

    std::uint64_t csum_fails = 0;
    for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts()); ++n)
        csum_fails += net.nic(n).stats().csumFails.value();
    EXPECT_GT(csum_fails, 0u) << "residual errors never materialized; "
                                 "raise ber/residual";

    // No silently corrupted delivery: every message the tracker calls
    // complete had all its copies re-delivered clean.
    EXPECT_EQ(net.tracker().totalCompleted(), source.generated());
    EXPECT_EQ(net.tracker().partialCompleted(), 0u);
    EXPECT_EQ(net.tracker().inFlight(), 0u);

    std::string why;
    net.sim().runUntil(
        [&net] { return net.checkQuiescent(nullptr); }, 4096);
    EXPECT_TRUE(net.checkQuiescent(&why)) << why;
}

} // namespace
} // namespace mdw
