/**
 * @file
 * Tests for the activity-driven switch step: the per-port arrival
 * bounds and live-port masks, the held-input mask, the CB switch's
 * per-mode output masks and stage gates, and decode-once.
 *
 * SwitchActivity runs networks cycle by cycle and, after every cycle,
 * asks every switch to recompute its activity bookkeeping from scratch
 * (SwitchBase::activityExact). Every port or stage a step skips is
 * then one where running it would have done nothing. Coverage:
 * both architectures under contended load, multi-lane switches,
 * fail-stop and transient faults, the sharded scheduler (whose
 * boundary flush lowers the bounds and sets the live bits at the
 * barrier), hardware barriers, and CB constants other than the
 * defaults (chunk and output FIFO size, link delay, the multiport
 * encoding's variable header length). The CB gates' bounds rest on
 * an input FIFO gaining, and an output FIFO losing, at most one flit
 * per cycle; two tests check that directly on one switch.
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
#include "message/packet.hh"
#include "sim/config.hh"
#include "switch/central_buffer_switch.hh"
#include "topology/fat_tree.hh"
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
    // Half-size chunks (twice as many, the same storage) and output
    // FIFOs move every chunk-granular bound.
    expectExactThroughout(
        "arch=cb scheme=hw cb.chunks=256 cb.chunkFlits=4 cb.outputFifo=8 "
        "workload.pattern=bimodal workload.mcastFraction=0.3 "
        "workload.load=0.3");
    // A longer wire spaces the arrivals.
    expectExactThroughout(
        "arch=cb scheme=hw linkDelay=3 workload.load=0.2");
    // Multiport headers grow with the destination set, so the decode
    // bound waits a different number of flits per worm.
    expectExactThroughout(
        "arch=cb scheme=hw encoding=multiport workload.load=0.2");
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

/** Run hardware barriers on a 16-host network built from @p config,
 *  checking every switch after every cycle. */
void
expectExactThroughBarriers(NetworkConfig config)
{
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

TEST(SwitchActivity, ExactThroughHardwareBarriers)
{
    expectExactThroughBarriers(defaultNetwork());
    // Barrier emissions write the central queue directly.
    NetworkConfig small = defaultNetwork();
    small.cb.cqChunks = 256;
    small.cb.chunkFlits = 4;
    small.cb.outputFifoFlits = 8;
    small.linkDelay = 3;
    expectExactThroughBarriers(small);
}

/** Link-layer hook that delivers every flit at one fixed cycle, as a
 *  replay round can (equal arrival cycles keep the channel FIFO). */
class SameCycleHook : public ChannelHook<Flit>
{
  public:
    explicit SameCycleHook(Cycle arrival) : arrival_(arrival) {}
    Cycle onSend(Flit &, Cycle) override { return arrival_; }
    void onReceive(const Flit &) override {}

  private:
    Cycle arrival_;
};

/** One 4-port central-buffer switch with every output wired to a
 *  plain channel granting @p window credits. */
struct LoneSwitch
{
    explicit LoneSwitch(int window)
        : tree(4, 1),
          sw("sw", 0, &tree.routing().at(0), SwitchParams{}, CbParams{}),
          outs(4), outCredits(4), ins(4), inCredits(4)
    {
        for (std::size_t p = 0; p < 4; ++p) {
            const auto port = static_cast<PortId>(p);
            sw.connectOut(port, &outs[p], &outCredits[p],
                          ReceivePolicy{window, false});
            sw.connectIn(port, &ins[p], &inCredits[p]);
        }
    }

    PacketPtr
    packet(DestSet dests, PacketKind kind, int payload)
    {
        PacketDesc desc;
        desc.src = 0;
        desc.dests = std::move(dests);
        desc.kind = kind;
        desc.headerFlits = 2;
        desc.payloadFlits = payload;
        return factory.make(std::move(desc));
    }

    FatTree tree;
    CentralBufferSwitch sw;
    std::vector<Channel<Flit>> outs;
    std::vector<CreditChannel> outCredits;
    std::vector<Channel<Flit>> ins;
    std::vector<CreditChannel> inCredits;
    PacketFactory factory;
};

TEST(SwitchActivity, InputFifoGainsOneFlitPerCycle)
{
    // A hooked input link hands all eight flits of a worm to the
    // switch at cycle 20. Output 3 grants no credit, so the unicast
    // claims its bypass path and nothing leaves the input FIFO: the
    // flits must still enter it one per cycle.
    LoneSwitch lone(0);
    SameCycleHook hook(20);
    Channel<Flit>::Side side;
    lone.ins[0].setSide(&side);
    lone.ins[0].setHook(&hook);
    const PacketPtr pkt =
        lone.packet(DestSet::of(4, {3}), PacketKind::Unicast, 6);
    for (int seq = 0; seq < pkt->totalFlits(); ++seq)
        lone.ins[0].send(Flit{pkt, seq, 0}, static_cast<Cycle>(seq));
    ASSERT_EQ(lone.ins[0].nextArrival(), 20u);
    for (Cycle now = 0; now < 40; ++now) {
        lone.sw.step(now);
        const int expect = now < 20 ? 0
                                    : std::min<int>(
                                          static_cast<int>(now - 19),
                                          pkt->totalFlits());
        EXPECT_EQ(lone.sw.inputOccupancy(0), expect) << "cycle " << now;
    }
    EXPECT_EQ(lone.sw.stats().flitsIn.value(), 8u);
    EXPECT_EQ(lone.ins[0].inFlight(), 0u);
}

TEST(SwitchActivity, OutputFifoDrainsOneFlitPerCycle)
{
    // A multicast streams through the central queue to outputs 1, 2
    // and a failed output 3, whose tombstone sink takes any flit at
    // once. Each output still sends (or swallows) at most one flit per
    // cycle, though it fetches a whole chunk at a time.
    LoneSwitch lone(64);
    lone.sw.failOutPort(3);
    const PacketPtr pkt =
        lone.packet(DestSet::of(4, {1, 2, 3}), PacketKind::HwMulticast, 38);
    int window = lone.sw.receivePolicy(0).window;
    int sent = 0;
    std::uint64_t tx1 = 0, tx2 = 0, dropped = 0;
    for (Cycle now = 0; now < 200; ++now) {
        window += lone.inCredits[0].receive(now);
        if (window > 0 && sent < pkt->totalFlits()) {
            lone.ins[0].send(Flit{pkt, sent++, 0}, now);
            --window;
        }
        lone.sw.step(now);
        const std::uint64_t t1 = lone.sw.portTxFlits(1);
        const std::uint64_t t2 = lone.sw.portTxFlits(2);
        const std::uint64_t d = lone.sw.stats().tombstonedFlits.value();
        EXPECT_LE(t1 - tx1, 1u) << "cycle " << now;
        EXPECT_LE(t2 - tx2, 1u) << "cycle " << now;
        EXPECT_LE(d - dropped, 1u) << "cycle " << now;
        tx1 = t1;
        tx2 = t2;
        dropped = d;
    }
    const auto total = static_cast<std::uint64_t>(pkt->totalFlits());
    EXPECT_EQ(tx1, total);
    EXPECT_EQ(tx2, total);
    EXPECT_EQ(dropped, total);
    EXPECT_EQ(lone.sw.cqEntries(), 0u);
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
