/**
 * @file
 * Differential golden-stats harness for the schedulers: a three-way
 * oracle.
 *
 * Every figure/ablation-style configuration is run on the
 * cycle-accurate oracle (sim.fastPath=0), on the idle-skipping fast
 * path, and on the sharded scheduler (sim.shards=2 and 4), and all
 * ExperimentResults must match bit for bit: every MetricsSnapshot
 * entry (counters, gauges, histogram bins), every verdict flag, the
 * cycle count, and (when tracing is on) the exact WormTracer event
 * sequence. A dedicated test sweeps shard counts {1,2,4,8} and thread
 * counts (inline and pooled), and a randomized property test hammers
 * the same equivalences over random topologies, bimodal workloads,
 * and fault plans.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/hw_barrier.hh"
#include "core/network.hh"
#include "core/presets.hh"
#include "scoped_env.hh"
#include "sim/config.hh"
#include "switch/arbiter.hh"
#include "workload/traffic.hh"

namespace mdw {
namespace {

/** Phase lengths small enough to run ~20 configs in a test binary. */
Config
baseOverrides()
{
    Config config;
    config.set("warmup", "800");
    config.set("measure", "2000");
    config.set("drainLimit", "60000");
    config.set("watchdog", "40000");
    return config;
}

ExperimentResult
runMode(const Config &config, bool fastPath, std::size_t shards = 1,
        unsigned shardThreads = 1)
{
    NetworkConfig network = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(config, network, traffic, params);
    network.fastPath = fastPath;
    network.shards = shards;
    network.shardThreads = shardThreads;
    Experiment experiment(network, traffic, params);
    return experiment.run();
}

/** Append "key=value ..." tokens onto the base config. */
Config
withTokens(const std::string &tokens)
{
    Config config = baseOverrides();
    std::istringstream stream(tokens);
    std::string token;
    while (stream >> token)
        config.parseToken(token);
    return config;
}

/** Human-readable first-difference report between two snapshots. */
std::string
diffSnapshots(const MetricsSnapshot &a, const MetricsSnapshot &b)
{
    std::string out;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string name(a.name(i));
        const std::optional<MetricValue> other = b.find(name);
        if (!other)
            out += "missing in fast: " + name + "; ";
        else if (!a.value(i).identical(*other))
            out += "differs: " + name + "; ";
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (!a.has(b.name(i)))
            out += "missing in slow: " + std::string(b.name(i)) + "; ";
    }
    return out.empty() ? "(no metric diff -- flags/cycles differ)"
                       : out;
}

void
expectSame(const ExperimentResult &ref, const ExperimentResult &got,
           const std::string &tokens, const char *mode)
{
    EXPECT_TRUE(identicalResults(ref, got))
        << mode << " diverged for: " << tokens << "\n  "
        << diffSnapshots(ref.metrics, got.metrics)
        << "\n  ref: cycles=" << ref.cyclesRun
        << " drained=" << ref.drained
        << " deadlocked=" << ref.deadlocked
        << " quiescent=" << ref.quiescent
        << "\n  got: cycles=" << got.cyclesRun
        << " drained=" << got.drained
        << " deadlocked=" << got.deadlocked
        << " quiescent=" << got.quiescent;

    // identicalResults covers the snapshot; spot-check the verdict
    // fields explicitly so a future refactor of identicalResults
    // cannot silently weaken this harness.
    EXPECT_EQ(ref.cyclesRun, got.cyclesRun) << tokens;
    EXPECT_EQ(ref.saturated, got.saturated) << tokens;
    EXPECT_EQ(ref.drained, got.drained) << tokens;
    EXPECT_EQ(ref.deadlocked, got.deadlocked) << tokens;
    EXPECT_EQ(ref.quiescent, got.quiescent) << tokens;

    // Histogram bins bitwise: samplers already compared via
    // MetricValue::identical inside identicalResults.
    ASSERT_EQ(ref.metrics.size(), got.metrics.size()) << tokens;
}

void
expectTraceIdentical(const ExperimentResult &ref,
                     const ExperimentResult &got,
                     const std::string &tokens)
{
    ASSERT_NE(ref.trace, nullptr) << tokens;
    ASSERT_NE(got.trace, nullptr) << tokens;
    EXPECT_EQ(ref.trace->recorded, got.trace->recorded) << tokens;
    EXPECT_EQ(ref.trace->dropped, got.trace->dropped) << tokens;
    ASSERT_EQ(ref.trace->events.size(), got.trace->events.size())
        << tokens;
    for (std::size_t i = 0; i < ref.trace->events.size(); ++i) {
        const WormTraceEvent &a = ref.trace->events[i];
        const WormTraceEvent &b = got.trace->events[i];
        ASSERT_TRUE(a.cycle == b.cycle && a.packet == b.packet &&
                    a.msg == b.msg && a.component == b.component &&
                    a.arg == b.arg && a.kind == b.kind &&
                    a.atHost == b.atHost)
            << tokens << " -- event " << i << " differs at cycle "
            << a.cycle << " vs " << b.cycle;
    }
}

void
expectIdentical(const std::string &tokens)
{
    const Config config = withTokens(tokens);
    const ExperimentResult slow = runMode(config, false);
    const ExperimentResult fast = runMode(config, true);
    expectSame(slow, fast, tokens, "fast path");
    expectSame(slow, runMode(config, true, 2), tokens, "2 shards");
    expectSame(slow, runMode(config, true, 4), tokens, "4 shards");
}

// One scenario per fig_*/ablation_* bench, holding each one's
// distinctive knobs (scheme, pattern, topology, faults, tracing) at a
// size that keeps the whole matrix fast.
struct Scenario
{
    const char *name;
    const char *tokens;
};

const Scenario kScenarios[] = {
    // fig_throughput / fig_multiple_multicast: the three schemes
    // under multiple multicast, light and heavy load.
    {"throughput_cb_hw", "arch=cb scheme=hw workload.load=0.05"},
    {"throughput_ib_hw", "arch=ib scheme=hw workload.load=0.05"},
    {"throughput_sw_umin", "arch=cb scheme=sw workload.load=0.05"},
    {"throughput_cb_hw_hot", "arch=cb scheme=hw workload.load=0.3"},
    // fig_bimodal: unicast background with a multicast fraction.
    {"bimodal",
     "workload.pattern=bimodal workload.mcastFraction=0.1 "
     "workload.load=0.15"},
    // fig_degree: wide fan-out.
    {"degree16", "workload.degree=16 workload.load=0.08"},
    // fig_msg_length: segmentation and reassembly.
    {"segmented",
     "workload.payload=256 maxPayload=64 workload.load=0.08"},
    // fig_system_size: small and medium systems.
    {"size_16", "k=4 n=2 workload.load=0.08"},
    {"size_8", "k=2 n=3 workload.load=0.08 workload.degree=4"},
    // fig_resilience: faults, rerouting, retransmission.
    {"resilience",
     "fault.links=2 fault.switches=1 fault.start=600 fault.end=1400 "
     "nic.retransmitTimeout=3000 workload.load=0.05"},
    {"resilience_ib",
     "arch=ib fault.links=2 fault.start=600 fault.end=1400 "
     "nic.retransmitTimeout=3000 workload.load=0.05"},
    // ablation_routing.
    {"routing_up_path",
     "routing=replicate-on-up-path workload.load=0.08"},
    // ablation_cbsize.
    {"cb_small",
     "cb.chunks=64 workload.payload=32 maxPayload=32 "
     "workload.load=0.08"},
    // ablation_encoding.
    {"multiport", "encoding=multiport workload.load=0.08"},
    // ablation_hotspot.
    {"hotspot",
     "workload.pattern=hot-spot workload.hotFraction=0.3 "
     "workload.load=0.1"},
    // ablation_ibsize.
    {"ib_big", "arch=ib ib.buffer=128 workload.load=0.08"},
    // ablation_replication.
    {"sync_replication",
     "arch=ib replication=synchronous workload.load=0.05"},
    // ablation_topology.
    {"irregular",
     "topo=irregular irr.switches=12 irr.radix=6 irr.hosts=16 "
     "irr.extraLinks=6 workload.degree=4 workload.load=0.08"},
    // ablation_uproute.
    {"deterministic_up", "upPolicy=deterministic workload.load=0.08"},
    // fig_integrity: transient faults. BER with residual errors
    // exercises NAK/replay resolution plus the end-to-end checksum.
    {"transient_ber",
     "fault.ber=1e-3 fault.residual=0.05 nic.retransmitTimeout=3000 "
     "workload.load=0.05"},
    {"transient_ber_ib",
     "arch=ib fault.ber=5e-4 nic.retransmitTimeout=3000 "
     "workload.load=0.05"},
    // Short flap windows ride out on link-level retry alone.
    {"transient_flaps",
     "fault.flaps=2 fault.start=600 fault.end=1400 fault.flapMin=4 "
     "fault.flapMax=12 nic.retransmitTimeout=3000 workload.load=0.05"},
    // A long flap exhausts the retry budget and escalates into the
    // fail-stop rerouting/tombstone machinery mid-run.
    {"transient_flap_escalates",
     "fault.flaps=1 fault.start=600 fault.end=900 fault.flapMin=400 "
     "fault.flapMax=600 link.retryLimit=4 nic.retransmitTimeout=3000 "
     "workload.load=0.05"},
    // Everything at once, on the software scheme.
    {"transient_kitchen_sink",
     "scheme=sw fault.links=1 fault.ber=5e-4 fault.residual=0.1 "
     "fault.flaps=1 fault.start=600 fault.end=1200 fault.flapMin=8 "
     "fault.flapMax=20 nic.retransmitTimeout=3000 workload.load=0.05"},
    // Traced run: metric equality plus event-sequence equality below.
    {"traced",
     "telemetry.trace=1 telemetry.traceCapacity=65536 "
     "workload.load=0.05"},
    {"traced_faulty",
     "telemetry.trace=1 telemetry.traceCapacity=65536 "
     "workload.load=0.05 fault.links=1 fault.start=600 fault.end=1200 "
     "nic.retransmitTimeout=3000"},
    {"traced_transient",
     "telemetry.trace=1 telemetry.traceCapacity=65536 "
     "workload.load=0.05 fault.ber=1e-3 fault.residual=0.05 "
     "nic.retransmitTimeout=3000"},
    // fig_lanes: multi-lane switches with a class-tagged bimodal
    // foreground, on both architectures and both lane allocators.
    {"lanes2_bimodal",
     "switch.lanes=2 workload.pattern=bimodal "
     "workload.mcastFraction=0.1 workload.mcastClass=1 "
     "workload.load=0.15"},
    {"lanes4_adaptive",
     "switch.lanes=4 switch.laneAlloc=adaptive "
     "workload.pattern=bimodal workload.mcastFraction=0.1 "
     "workload.mcastClass=1 workload.load=0.1"},
    {"lanes4_ib",
     "arch=ib switch.lanes=4 workload.pattern=bimodal "
     "workload.mcastFraction=0.1 workload.mcastClass=1 "
     "workload.load=0.1"},
    {"lanes2_traced",
     "switch.lanes=2 telemetry.trace=1 telemetry.traceCapacity=65536 "
     "workload.pattern=bimodal workload.mcastFraction=0.1 "
     "workload.mcastClass=1 workload.load=0.05"},
    // fig_collectives: closed-loop workloads. Sleeping nodes must be
    // woken by the delivery/completion events that gate each phase,
    // in both scheduler modes, on identical cycles.
    {"closed_barrier",
     "workload.kind=collective workload.collective=barrier "
     "workload.rounds=4"},
    {"closed_allreduce",
     "workload.kind=collective workload.collective=allreduce "
     "workload.rounds=3"},
    {"closed_allreduce_sw",
     "scheme=sw workload.kind=collective "
     "workload.collective=allreduce workload.rounds=3"},
    {"closed_allreduce_ib",
     "arch=ib workload.kind=collective "
     "workload.collective=allreduce workload.rounds=3"},
    {"closed_invalidate",
     "workload.kind=collective workload.collective=invalidate "
     "workload.rounds=6"},
    // Multi-tenant: many groups with heavy-tailed sizes, jittered
    // starts, and think time between rounds (idle gaps the fast path
    // must sleep through without missing a wake).
    {"closed_multitenant",
     "workload.kind=collective workload.collective=allreduce "
     "workload.rounds=3 workload.groups=6 workload.think=40"},
    {"closed_traced",
     "telemetry.trace=1 telemetry.traceCapacity=65536 "
     "workload.kind=collective workload.collective=barrier "
     "workload.rounds=4"},
    // Faults during a collective: write-offs (partial completions)
    // must release closed-loop waiters identically in both modes.
    {"closed_barrier_faults",
     "workload.kind=collective workload.collective=barrier "
     "workload.rounds=4 fault.links=2 fault.start=200 fault.end=900 "
     "nic.retransmitTimeout=3000"},
};

class FastPathDiff : public ::testing::TestWithParam<Scenario>
{
};

TEST_P(FastPathDiff, BitIdentical)
{
    expectIdentical(GetParam().tokens);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, FastPathDiff, ::testing::ValuesIn(kScenarios),
    [](const ::testing::TestParamInfo<Scenario> &info) {
        return std::string(info.param.name);
    });

// lanes=1 must be bit-identical to the pre-lane switch: a single
// lane leaves no allocation or service choice to make, so spelling
// the knobs out (including the allocator, which can only matter with
// two or more lanes) must reproduce the default run exactly, in
// every scheduler mode. This is the oracle behind the CI promise
// that the lane datapath is dormant until switched on.
TEST(LaneDiff, SingleLaneMatchesDefaultBitIdentical)
{
    // This test pins lanes=1 by design; the suite-wide MDW_LANES
    // override (the CI lanes leg) would force every run multi-lane
    // and void the comparison. Each ctest entry is its own process,
    // so dropping it here cannot leak into other tests.
    unsetenv("MDW_LANES");
    const char *workload =
        "workload.pattern=bimodal workload.mcastFraction=0.1 "
        "workload.mcastClass=1 workload.load=0.15";
    const ExperimentResult ref =
        runMode(withTokens(workload), false);
    for (const std::string &knobs :
         {std::string("switch.lanes=1 "),
          std::string("switch.lanes=1 switch.laneAlloc=adaptive ")}) {
        const std::string tokens = knobs + workload;
        const Config config = withTokens(tokens);
        expectSame(ref, runMode(config, false), tokens, "oracle");
        expectSame(ref, runMode(config, true), tokens, "fast path");
        expectSame(ref, runMode(config, true, 2), tokens, "2 shards");
        expectSame(ref, runMode(config, true, 4), tokens, "4 shards");
    }
}

// Multidestination replication must keep every branch of a worm on
// one lane: the lane is chosen once at header decode and applied to
// all output branches, so the trace carries exactly one LaneAlloc
// event per (switch, packet) — a second one would mean a branch
// re-allocated mid-replication. With an all-multicast class-1
// workload every allocation must also land in the latency partition.
TEST(LaneDiff, ReplicationKeepsOneLaneClassPerWorm)
{
    const Config config = withTokens(
        "switch.lanes=4 telemetry.trace=1 "
        "telemetry.traceCapacity=65536 workload.mcastClass=1 "
        "workload.load=0.05");
    const ExperimentResult r = runMode(config, true);
    ASSERT_NE(r.trace, nullptr);
    ASSERT_EQ(r.trace->dropped, 0u);
    // A worm may legally traverse the same switch twice (up phase,
    // then again inside the root's down-replication fan-out), so a
    // switch can allocate for the same packet more than once. The
    // invariant is the lane itself: static allocation is purely
    // class-determined, so every branch of a worm, at every switch
    // it crosses, must land on one and the same latency-class lane.
    std::map<std::uint64_t, std::int32_t> laneOf;
    int seen = 0;
    for (const WormTraceEvent &e : r.trace->events) {
        if (e.kind != WormEvent::LaneAlloc)
            continue;
        ++seen;
        EXPECT_GE(e.arg, laneClassBase(4, 1)) << "packet " << e.packet;
        EXPECT_LT(e.arg, 4) << "packet " << e.packet;
        const auto [it, inserted] = laneOf.emplace(e.packet, e.arg);
        if (!inserted) {
            EXPECT_EQ(it->second, e.arg)
                << "packet " << e.packet << " switched lanes at "
                << "component " << e.component;
        }
    }
    EXPECT_GT(seen, 0) << "no LaneAlloc events traced at lanes=4";
}

TEST(FastPathDiffTrace, EventSequencesIdentical)
{
    for (const char *tokens :
         {"telemetry.trace=1 telemetry.traceCapacity=65536 "
          "workload.load=0.05",
          "telemetry.trace=1 telemetry.traceCapacity=65536 "
          "workload.load=0.05 fault.links=1 fault.start=600 fault.end=1200 "
          "nic.retransmitTimeout=3000",
          // crc_fail/nak/replay events must land on identical cycles.
          "telemetry.trace=1 telemetry.traceCapacity=65536 "
          "workload.load=0.05 fault.ber=1e-3 fault.residual=0.05 "
          "nic.retransmitTimeout=3000"}) {
        const Config config = withTokens(tokens);
        const ExperimentResult slow = runMode(config, false);
        expectTraceIdentical(slow, runMode(config, true), tokens);
        expectTraceIdentical(slow, runMode(config, true, 2), tokens);
        expectTraceIdentical(slow, runMode(config, true, 4), tokens);
    }
}

// The sharded scheduler against the oracle at every required shard
// count, inline and on a real worker pool, snapshot- and
// trace-sequence-exact. Also checks that sharding actually engaged
// (the matrix above would pass vacuously if setupSharding silently
// vetoed these configs).
TEST(ShardDiff, ShardAndThreadCountsBitIdentical)
{
    // Sharding needs the fast path; the suite-wide oracle override
    // (MDW_FAST_PATH=0) would veto every shard and void the check.
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const char *tokensList[] = {
        "telemetry.trace=1 telemetry.traceCapacity=65536 "
        "workload.load=0.1",
        "k=2 n=3 workload.load=0.08 workload.degree=4 "
        "telemetry.trace=1 telemetry.traceCapacity=65536",
        "topo=irregular irr.switches=12 irr.radix=6 irr.hosts=16 "
        "irr.extraLinks=6 workload.degree=4 workload.load=0.08",
        "workload.kind=collective workload.collective=allreduce "
        "workload.rounds=3",
    };
    for (const char *tokens : tokensList) {
        const Config config = withTokens(tokens);
        const ExperimentResult slow = runMode(config, false);
        // Three threads split 2, 4 and 8 shards unevenly.
        for (std::size_t shards : {1u, 2u, 4u, 8u}) {
            for (unsigned threads : {1u, 2u, 3u}) {
                SCOPED_TRACE(std::string(tokens) + " shards=" +
                             std::to_string(shards) + " threads=" +
                             std::to_string(threads));
                const ExperimentResult got =
                    runMode(config, true, shards, threads);
                expectSame(slow, got, tokens, "sharded");
                if (slow.trace != nullptr)
                    expectTraceIdentical(slow, got, tokens);
            }
        }
    }
    // Prove the veto did not fire for these configs.
    NetworkConfig network = defaultNetwork();
    network.shards = 4;
    Network net(network);
    EXPECT_EQ(net.effectiveShards(), 4u);
    EXPECT_TRUE(net.serialReason().empty());
}

// End-to-end retransmission with no fault plan keeps every switch
// free of shared state (retransmits and the tracker's dedup run in
// the serial NIC phase), so it shards, and stays bit-identical. The
// timeout is short enough that spurious retransmits really fire.
TEST(ShardDiff, RetransmissionAloneShards)
{
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const char *tokens = "nic.retransmitTimeout=150 workload.load=0.1";
    const Config config = withTokens(tokens);
    NetworkConfig network = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(config, network, traffic, params);
    network.shards = 4;
    {
        Network net(network);
        EXPECT_EQ(net.effectiveShards(), 4u);
        EXPECT_TRUE(net.serialReason().empty());
    }
    const ExperimentResult slow = runMode(config, false);
    EXPECT_GT(slow.metrics.counter("host.retransmits"), 0u);
    expectSame(slow, runMode(config, true), tokens, "fast path");
    expectSame(slow, runMode(config, true, 2), tokens, "2 shards");
    expectSame(slow, runMode(config, true, 4, 2), tokens,
               "4 shards on 2 threads");
}

// Subsystems that mutate shared state from switch steps must dissolve
// sharding rather than race: hardware barriers and the fault layers.
TEST(ShardDiff, SerialOnlySubsystemsVetoSharding)
{
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    {
        const Config config = withTokens(
            "fault.links=1 fault.start=600 fault.end=1200 "
            "nic.retransmitTimeout=3000 workload.load=0.05");
        NetworkConfig network = defaultNetwork();
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = defaultExperiment();
        applyOverrides(config, network, traffic, params);
        network.shards = 4;
        Network net(network);
        EXPECT_EQ(net.effectiveShards(), 0u);
        EXPECT_FALSE(net.serialReason().empty());
    }
    {
        NetworkConfig network = defaultNetwork();
        network.shards = 4;
        Network net(network);
        ASSERT_EQ(net.effectiveShards(), 4u);
        HwBarrierManager barriers(net);
        EXPECT_EQ(net.effectiveShards(), 0u);
        EXPECT_EQ(net.serialReason(), "hardware barriers");
    }
}

// Dependency-carrying trace replay: each event's release cycle is a
// function of earlier completions, so the scheduler modes only agree
// if delivery/completion wakes land on identical cycles throughout
// the dependency graph.
TEST(FastPathDiff, ClosedLoopTraceReplay)
{
    const std::string path =
        ::testing::TempDir() + "fastpath_deps.trace";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("# mdw-trace/2\n"
                   // A chain, a multicast fan-out, and a join that
                   // waits on two different completion times.
                   "1 0 0 U 1 32\n"
                   "2 0 1 U 2 32 deps=1\n"
                   "3 0 2 M 16 8,9,10,11 deps=2\n"
                   "4 5 8 U 0 16 deps=3\n"
                   "5 5 9 U 0 16 deps=3\n"
                   "6 0 3 U 4 64\n"
                   "7 0 63 M 32 0,1,2,3 deps=6\n"
                   "8 0 10 U 11 8 deps=3,7\n"
                   // Two symmetric intra-switch sends complete on the
                   // same cycle; each releases an event at node 40, so
                   // the two releases land same-node same-cycle from
                   // *distinct* completions -- the emission order must
                   // not depend on intra-cycle hook arrival order.
                   "9 0 20 U 21 32\n"
                   "10 0 24 U 25 32\n"
                   "11 0 40 U 41 8 deps=9\n"
                   "12 0 40 U 42 8 deps=10\n",
                   f);
        std::fclose(f);
    }
    expectIdentical("workload.kind=trace workload.trace=" + path);
    std::remove(path.c_str());
}

// The fast path must actually retire idle components, or it is just
// overhead: after an uncontended run drains, the whole tick set
// should be asleep.
TEST(FastPathDiff, IdleSystemFullyDeregisters)
{
    NetworkConfig config = defaultNetwork();
    config.fastPath = true;
    Network net(config);
    ScriptedTraffic traffic;
    MessageSpec spec;
    spec.dest = 5;
    spec.payloadFlits = 16;
    traffic.post(0, 0, spec);
    for (NodeId n = 0; n < static_cast<NodeId>(net.numHosts()); ++n)
        net.nic(n).setWorkload(&traffic);

    // Let the cycle-0 poll inject before polling idle() (which is
    // vacuously true on an empty network).
    net.sim().run(5);
    ASSERT_TRUE(net.sim().runUntil([&] { return net.idle(); }, 20000));
    ASSERT_TRUE(net.sim().runUntil(
        [&] { return net.checkQuiescent(nullptr); }, 4096));
    // The retire pass runs once per stride, so deregistration may lag
    // quiescence by up to one stride.
    net.sim().run(Simulator::kRetireStride);
    EXPECT_EQ(net.sim().activeCount(), 0u);
    EXPECT_EQ(net.nic(5).stats().packetsDelivered.value(), 1u);
}

// ~100 seeded trials over random topologies, bimodal workloads, and
// fault plans. A failure prints the offending override string for
// one-line reproduction.
TEST(FastPathProperty, RandomConfigsBitIdentical)
{
    std::mt19937 rng(20260809u);
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };

    for (int trial = 0; trial < 100; ++trial) {
        std::ostringstream tokens;
        tokens << "warmup=300 measure=800 drainLimit=30000 "
               << "watchdog=20000 workload.pattern=bimodal ";
        if (pick(0, 1) == 0) {
            tokens << "topo=fat-tree k=" << (pick(0, 1) ? 2 : 4)
                   << " n=2 ";
        } else {
            tokens << "topo=irregular irr.switches="
                   << (pick(0, 1) ? 8 : 12)
                   << " irr.radix=" << (pick(0, 1) ? 6 : 8)
                   << " irr.hosts=" << (pick(0, 1) ? 12 : 16)
                   << " irr.extraLinks=" << (pick(0, 1) ? 4 : 8)
                   << " ";
        }
        tokens << "arch=" << (pick(0, 1) ? "cb" : "ib") << " ";
        tokens << "scheme=" << (pick(0, 3) == 0 ? "sw" : "hw") << " ";
        tokens << "workload.load=0.0" << pick(2, 9) << " ";
        tokens << "workload.payload=" << (8 << pick(0, 3)) << " ";
        tokens << "workload.degree=" << pick(2, 3) << " ";
        tokens << "workload.mcastFraction=0." << pick(0, 3) << " ";
        tokens << "seed=" << (trial + 1) << " ";
        tokens << "workload.seed=" << (trial + 101) << " ";
        const bool failStop = pick(0, 1) == 1;
        const bool transient = pick(0, 2) == 0;
        if (failStop || transient) {
            tokens << "fault.start=300 fault.end=900"
                   << " fault.seed=" << (trial + 7)
                   << " nic.retransmitTimeout=" << pick(15, 25) * 100
                   << " ";
        }
        if (failStop) {
            tokens << "fault.links=" << pick(1, 2)
                   << " fault.switches=" << pick(0, 1) << " ";
        }
        if (transient) {
            tokens << "fault.ber=" << pick(1, 8) << "e-4 ";
            if (pick(0, 1) == 1)
                tokens << "fault.residual=0.1 ";
            if (pick(0, 1) == 1)
                tokens << "fault.flaps=1 fault.flapMin=8 "
                       << "fault.flapMax=48 ";
        }
        SCOPED_TRACE("repro: " + tokens.str());
        expectIdentical(tokens.str());
    }
}

} // namespace
} // namespace mdw
