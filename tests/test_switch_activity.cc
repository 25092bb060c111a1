/**
 * @file
 * Tests for the activity-driven switch step: the per-port arrival
 * bounds and live-port masks, the held-input mask, the CB switch's
 * per-mode output masks and CQ-writer count, and decode-once.
 *
 * SwitchActivity runs networks cycle by cycle and, after every cycle,
 * asks every switch to recompute its activity bookkeeping from scratch
 * (SwitchBase::activityExact). Every port or stage a step skips is
 * then one where running it would have done nothing. Coverage:
 * both architectures under contended load, multi-lane switches,
 * fail-stop and transient faults, the sharded scheduler (whose
 * boundary flush lowers the bounds and sets the live bits at the
 * barrier), and hardware barriers.
 */

#include <map>
#include <sstream>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/hw_barrier.hh"
#include "core/network.hh"
#include "core/presets.hh"
#include "sim/config.hh"
#include "workload/traffic.hh"

namespace mdw {
namespace {

/**
 * True (with @p why filled) if any switch of @p net breaks its
 * activity contract right now.
 */
bool
activityBroken(Network &net, std::string &why)
{
    for (std::size_t s = 0; s < net.numSwitches(); ++s) {
        std::string reason;
        if (!net.switchAt(static_cast<SwitchId>(s))
                 .activityExact(&reason)) {
            why = "cycle " + std::to_string(net.sim().now()) + ": " +
                  reason;
            return true;
        }
    }
    return false;
}

/**
 * Run synthetic traffic configured by @p tokens (presets syntax) until
 * it drains, checking every switch after every cycle.
 */
void
expectExactThroughout(const std::string &tokens)
{
    Config config;
    std::istringstream stream(
        "warmup=600 measure=1500 watchdog=40000 " + tokens);
    std::string token;
    while (stream >> token)
        config.parseToken(token);
    NetworkConfig network = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(config, network, traffic, params);
    traffic.stopCycle = params.warmup + params.measure;

    Network net(network);
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);
    net.armWatchdog(params.watchdogQuiet);

    std::string why;
    std::uint64_t cycles = 0;
    bool broken = false;
    // Checked before the first cycle too; run past the end of
    // generation until the last credits are home.
    const bool settled = net.sim().runUntil(
        [&] {
            ++cycles;
            broken = activityBroken(net, why);
            return broken || (net.sim().now() >= traffic.stopCycle &&
                              net.checkQuiescent(nullptr));
        },
        traffic.stopCycle + 60000);
    EXPECT_FALSE(broken) << tokens << "\n" << why;
    EXPECT_TRUE(settled) << tokens;
    EXPECT_FALSE(net.sim().deadlockDetected()) << tokens;
    EXPECT_GT(cycles, 1000u) << tokens;
    net.detachWorkload();
}

TEST(SwitchActivity, ExactUnderContendedCentralBuffer)
{
    expectExactThroughout("arch=cb scheme=hw workload.load=0.3");
    // Unicasts exercise the bypass claim and the unicast CQ path.
    expectExactThroughout(
        "arch=cb scheme=hw workload.pattern=bimodal "
        "workload.mcastFraction=0.3 workload.load=0.3");
}

TEST(SwitchActivity, ExactUnderContendedInputBuffer)
{
    expectExactThroughout("arch=ib scheme=hw workload.load=0.2");
}

TEST(SwitchActivity, ExactUnderSynchronousReplication)
{
    expectExactThroughout(
        "arch=ib replication=synchronous workload.load=0.1");
}

TEST(SwitchActivity, ExactWithTwoLanes)
{
    expectExactThroughout(
        "switch.lanes=2 workload.pattern=bimodal "
        "workload.mcastFraction=0.2 workload.mcastClass=1 "
        "workload.load=0.2");
    expectExactThroughout(
        "arch=ib switch.lanes=2 workload.pattern=bimodal "
        "workload.mcastFraction=0.2 workload.mcastClass=1 "
        "workload.load=0.15");
}

TEST(SwitchActivity, ExactUnderFailStopAndTransientFaults)
{
    expectExactThroughout(
        "fault.links=2 fault.switches=1 fault.start=400 fault.end=1200 "
        "fault.ber=1e-3 fault.residual=0.05 nic.retransmitTimeout=3000 "
        "workload.load=0.1");
    expectExactThroughout(
        "arch=ib fault.links=2 fault.start=400 fault.end=1200 "
        "fault.ber=5e-4 nic.retransmitTimeout=3000 workload.load=0.05");
}

TEST(SwitchActivity, ExactOnTheShardedScheduler)
{
    // Cross-shard links defer their pushes to the barrier flush, which
    // is then what lowers the receiving switch's arrival bounds.
    expectExactThroughout(
        "sim.shards=4 arch=cb scheme=hw workload.load=0.2");
    expectExactThroughout(
        "sim.shards=4 arch=ib scheme=hw workload.load=0.1");
}

TEST(SwitchActivity, ExactOnTheAlwaysSteppedPath)
{
    expectExactThroughout(
        "sim.fastPath=0 arch=cb scheme=hw workload.load=0.1");
}

TEST(SwitchActivity, ExactThroughHardwareBarriers)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    Network net(config);
    HwBarrierManager barrier(net);
    net.attachWorkload(&barrier);
    DestSet everyone(net.numHosts());
    for (NodeId m = 0; m < 16; ++m)
        everyone.set(m);
    DestSet some(net.numHosts());
    for (NodeId m : {1, 2, 9, 14})
        some.set(m);
    const int all = barrier.createGroup(everyone);
    const int part = barrier.createGroup(some);
    int rounds = 0;
    std::function<void(Cycle)> again = [&](Cycle) {
        if (++rounds < 6)
            barrier.startBarrier(all, again);
    };
    barrier.startBarrier(all, again);
    barrier.startBarrier(part, nullptr);
    net.armWatchdog(20000);

    std::string why;
    bool broken = false;
    ASSERT_TRUE(net.sim().runUntil(
        [&] {
            broken = activityBroken(net, why);
            return broken || (rounds == 6 && net.idle());
        },
        200000));
    EXPECT_FALSE(broken) << why;
    EXPECT_EQ(rounds, 6);
    EXPECT_EQ(barrier.pendingBarriers(), 0u);
}

TEST(SwitchActivity, CentralBufferDecodesEachWormOnce)
{
    // A small central queue under heavy multicast load: heads wait
    // many cycles for their whole-packet reservation. Each one is
    // still decoded (and traced) exactly once per switch and input.
    NetworkConfig network = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    Config config;
    for (const char *token :
         {"arch=cb", "scheme=hw", "cb.chunks=80", "workload.load=0.3",
          "warmup=300", "measure=1200", "telemetry.trace=1",
          "telemetry.traceCapacity=1048576"})
        config.parseToken(token);
    applyOverrides(config, network, traffic, params);
    const ExperimentResult r = Experiment(network, traffic, params).run();
    ASSERT_NE(r.trace, nullptr);
    ASSERT_EQ(r.trace->dropped, 0u);

    using Key = std::tuple<PacketId, std::int32_t, std::int32_t>;
    std::map<Key, int> decodes;
    std::map<Key, int> stalls;
    for (const WormTraceEvent &e : r.trace->events) {
        if (e.atHost)
            continue;
        const Key key{e.packet, e.component, e.arg};
        if (e.kind == WormEvent::HeaderDecode)
            ++decodes[key];
        else if (e.kind == WormEvent::ReserveStall)
            ++stalls[key];
    }
    int long_waits = 0;
    for (const auto &[key, count] : stalls) {
        if (count < 3)
            continue;
        ++long_waits;
        EXPECT_EQ(decodes[key], 1)
            << "packet " << std::get<0>(key) << " at switch "
            << std::get<1>(key) << " input " << std::get<2>(key)
            << " stalled " << count << " cycles";
    }
    EXPECT_GT(long_waits, 0) << "no multicast waited for a reservation";
    for (const auto &[key, count] : decodes)
        EXPECT_EQ(count, 1) << "packet " << std::get<0>(key)
                            << " at switch " << std::get<1>(key);
}

} // namespace
} // namespace mdw
