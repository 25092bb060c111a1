/**
 * @file
 * Tests for the telemetry subsystem: metric value/snapshot semantics,
 * ring-buffer tracing, zero-overhead guarantees when tracing is off,
 * and byte-identical exports across repeated and parallel runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/presets.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "sim/telemetry.hh"

namespace mdw {
namespace {

/** Whole names register under the empty prefix. */
constexpr MetricsRegistry::ScopeId kRoot = MetricsRegistry::kRoot;

// --- MetricValue / MetricsSnapshot -----------------------------------

TEST(MetricValue, CountersAddOnMerge)
{
    MetricValue a = MetricValue::makeCounter(3);
    a.merge(MetricValue::makeCounter(4));
    EXPECT_EQ(a.kind, MetricValue::Kind::Counter);
    EXPECT_EQ(a.counter, 7u);
}

TEST(MetricValue, GaugesCollapseIntoSamplerAcrossMerges)
{
    MetricValue a = MetricValue::makeGauge(1.0);
    a.merge(MetricValue::makeGauge(3.0));
    EXPECT_EQ(a.kind, MetricValue::Kind::Sampler);
    EXPECT_EQ(a.sampler.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sampler.mean(), 2.0);
    // Third run's gauge merges into the collapsed sampler.
    a.merge(MetricValue::makeGauge(5.0));
    EXPECT_EQ(a.sampler.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sampler.mean(), 3.0);
}

TEST(MetricsSnapshot, LookupsAreTotal)
{
    MetricsSnapshot snap;
    EXPECT_EQ(snap.counter("absent"), 0u);
    EXPECT_DOUBLE_EQ(snap.gauge("absent"), 0.0);
    EXPECT_EQ(snap.sampler("absent").count(), 0u);
    EXPECT_FALSE(snap.has("absent"));
}

TEST(MetricsSnapshot, SumCountersRollsUpHierarchy)
{
    MetricsSnapshot snap;
    snap.setCounter("switch.0.replications", 2);
    snap.setCounter("switch.1.replications", 5);
    snap.setCounter("switch.1.flits_in", 100);
    EXPECT_EQ(snap.sumCounters(".replications"), 7u);
}

TEST(MetricsSnapshot, IdenticalIsExact)
{
    MetricsSnapshot a, b;
    a.setGauge("x", 0.1);
    b.setGauge("x", 0.1);
    EXPECT_TRUE(a.identical(b));
    b.setGauge("x", 0.1 + 1e-18);
    EXPECT_TRUE(a.identical(b)); // same double bit pattern
    b.setGauge("x", 0.2);
    EXPECT_FALSE(a.identical(b));
    b.setGauge("x", 0.1);
    b.setCounter("y", 1);
    EXPECT_FALSE(a.identical(b));
}

// --- Registry --------------------------------------------------------

TEST(MetricsRegistry, SnapshotsReadLiveSources)
{
    Counter c;
    Sampler s;
    MetricsRegistry reg;
    reg.registerCounter(kRoot, "c", &c);
    reg.registerSampler(kRoot, "s", &s);
    reg.registerGauge(kRoot, "g", [] { return 2.5; });
    reg.registerIntGauge(kRoot, "i", [] { return std::uint64_t{9}; });

    c.inc(3);
    s.add(1.0);
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("c"), 3u);
    EXPECT_EQ(snap.sampler("s").count(), 1u);
    EXPECT_DOUBLE_EQ(snap.gauge("g"), 2.5);
    EXPECT_EQ(snap.counter("i"), 9u);

    c.inc(2); // registry holds pointers, not copies
    EXPECT_EQ(reg.snapshot().counter("c"), 5u);
    EXPECT_EQ(snap.counter("c"), 3u); // snapshots are value types
}

TEST(MetricsRegistry, ScopesRenderDottedNames)
{
    Counter c;
    MetricsRegistry reg;
    const MetricsRegistry::ScopeId sw = reg.scope("switch.", 12);
    const MetricsRegistry::ScopeId port = reg.scope("port.", 3, sw);
    reg.registerCounter(sw, "flits_in", &c);
    reg.registerCounter(port, "tx_flits", &c);
    reg.registerCounter(reg.scope("p", 2, reg.scope("link.", 7)), "naks",
                        &c);
    reg.registerCounter(kRoot, "network.flits_in", &c);
    EXPECT_EQ(reg.size(), 4u);
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"link.7.p2.naks",
                                        "network.flits_in",
                                        "switch.12.flits_in",
                                        "switch.12.port.3.tx_flits"}));
}

TEST(MetricsRegistry, NamesAreSortedAndUnique)
{
    // Registered out of order, across scopes and whole names; "10"
    // sorts before "9" as the names are compared as strings.
    Counter c;
    MetricsRegistry reg;
    for (std::uint32_t id : {9u, 10u, 1u}) {
        const MetricsRegistry::ScopeId nic = reg.scope("nic.", id);
        reg.registerCounter(nic, "retransmits", &c);
        reg.registerCounter(nic, "flits_injected", &c);
    }
    reg.registerCounter(kRoot, "host.retransmits", &c);
    reg.registerCounter(kRoot, "a", &c);
    const std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), reg.size());
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()),
              names.end());
    EXPECT_EQ(names.front(), "a");
    EXPECT_EQ(names[2], "nic.1.flits_injected");
    EXPECT_EQ(names[4], "nic.10.flits_injected");
    // The snapshot holds the same names in the same order.
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(snap.name(i), names[i]);
}

TEST(MetricsRegistryDeathTest, DuplicateNameIsFatal)
{
    Counter c;
    // The same name reached through a scope and as a whole name.
    EXPECT_EXIT(
        {
            MetricsRegistry reg;
            reg.registerCounter(reg.scope("switch.", 1), "flits_in", &c);
            reg.registerCounter(kRoot, "switch.1.flits_in", &c);
            (void)reg.snapshot();
        },
        ::testing::ExitedWithCode(1),
        "metric 'switch.1.flits_in' registered twice");
    // Two identical scopes are allowed; their metrics must differ.
    EXPECT_EXIT(
        {
            MetricsRegistry reg;
            reg.registerCounter(reg.scope("nic.", 4), "naks", &c);
            reg.registerCounter(reg.scope("nic.", 4), "naks", &c);
            (void)reg.names();
        },
        ::testing::ExitedWithCode(1),
        "metric 'nic.4.naks' registered twice");
}

TEST(MetricsRegistry, TimeAverageYieldsAvgAndPeak)
{
    TimeAverage occupancy;
    occupancy.update(4.0, 0);
    occupancy.update(0.0, 10);
    Cycle now = 20;
    MetricsRegistry reg;
    reg.setClock([&now] { return now; });
    reg.registerTimeAverage(reg.scope("switch.", 0),
                            "cq.occupancy_chunks", &occupancy);
    reg.registerTimeAverage(kRoot, "network.occupancy", &occupancy);
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"network.occupancy.avg",
                                        "network.occupancy.peak",
                                        "switch.0.cq.occupancy_chunks.avg",
                                        "switch.0.cq.occupancy_chunks.peak"}));
    MetricsSnapshot snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauge("switch.0.cq.occupancy_chunks.avg"),
                     occupancy.average(20));
    EXPECT_DOUBLE_EQ(snap.gauge("switch.0.cq.occupancy_chunks.peak"), 4.0);
    // Read at the clock's value when the snapshot is taken.
    now = 40;
    snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.gauge("network.occupancy.avg"),
                     occupancy.average(40));
    EXPECT_LT(snap.gauge("network.occupancy.avg"),
              occupancy.average(20));
}

TEST(MetricsRegistry, IntReaderGaugesReadTheirSource)
{
    std::uint64_t grants = 3;
    MetricsRegistry reg;
    reg.registerIntGauge(reg.scope("switch.", 2), "arb.grants", &grants,
                         [](const void *g) {
                             return *static_cast<const std::uint64_t *>(g);
                         });
    reg.registerIntGauge(kRoot, "total",
                         [&grants] { return grants * 2; });
    grants = 5;
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("switch.2.arb.grants"), 5u);
    EXPECT_EQ(snap.counter("total"), 10u);
}

TEST(MetricsSnapshot, SetCounterAfterSnapshotThenMerge)
{
    Counter c;
    Sampler s;
    c.inc(4);
    s.add(2.0);
    MetricsRegistry reg;
    reg.registerCounter(kRoot, "switch.0.flits_in", &c);
    reg.registerSampler(kRoot, "tracker.latency.unicast", &s);
    reg.registerGauge(kRoot, "network.cq.avg_chunks", [] { return 1.5; });

    MetricsSnapshot first = reg.snapshot();
    // Added after the snapshot: sorted in, or overwriting in place.
    first.setCounter("experiment.end_backlog_packets", 7);
    first.setGauge("workload.rate", 0.25);
    first.setCounter("switch.0.flits_in", 9);

    MetricsSnapshot second = reg.snapshot();
    second.setCounter("experiment.end_backlog_packets", 1);
    second.setCounter("zz.only_second", 3);

    first.merge(second);
    EXPECT_EQ(first.counter("switch.0.flits_in"), 13u);
    EXPECT_EQ(first.counter("experiment.end_backlog_packets"), 8u);
    EXPECT_EQ(first.counter("zz.only_second"), 3u);
    // Gauges merged across runs collapse into a per-run sampler;
    // gauges only one side has stay gauges.
    EXPECT_EQ(first.sampler("network.cq.avg_chunks").count(), 2u);
    EXPECT_DOUBLE_EQ(first.gauge("workload.rate"), 0.25);
    EXPECT_EQ(first.sampler("tracker.latency.unicast").count(), 2u);
    EXPECT_EQ(
        first.toJson(),
        "{\"experiment.end_backlog_packets\":8,"
        "\"network.cq.avg_chunks\":{\"count\":2,\"mean\":1.5,"
        "\"stddev\":0,\"min\":1.5,\"max\":1.5},"
        "\"switch.0.flits_in\":13,"
        "\"tracker.latency.unicast\":{\"count\":2,\"mean\":2,"
        "\"stddev\":0,\"min\":2,\"max\":2},"
        "\"workload.rate\":0.25,\"zz.only_second\":3}");
    // Merging into an empty snapshot copies.
    MetricsSnapshot empty;
    empty.merge(second);
    EXPECT_TRUE(empty.identical(second));
}

// --- WormTracer ------------------------------------------------------

TEST(WormTracer, RingBufferWrapsKeepingNewestEvents)
{
    WormTracer tracer(4);
    for (int i = 0; i < 10; ++i)
        tracer.record(WormEvent::Inject, static_cast<Cycle>(100 + i),
                      static_cast<PacketId>(i), 1, 0, true);
    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.recorded(), 10u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(tracer.size(), 4u);

    const WormTrace trace = tracer.snapshot();
    ASSERT_EQ(trace.events.size(), 4u);
    EXPECT_EQ(trace.recorded, 10u);
    EXPECT_EQ(trace.dropped, 6u);
    // Oldest-first, and only the newest four survive.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(trace.events[static_cast<std::size_t>(i)].cycle,
                  static_cast<Cycle>(106 + i));
}

TEST(WormTracer, PartialFillSnapshotsInOrder)
{
    WormTracer tracer(8);
    tracer.record(WormEvent::Inject, 5, 1, 1, 0, true);
    tracer.record(WormEvent::Deliver, 9, 1, 1, 3, true);
    const WormTrace trace = tracer.snapshot();
    ASSERT_EQ(trace.events.size(), 2u);
    EXPECT_EQ(trace.events[0].cycle, 5u);
    EXPECT_EQ(trace.events[1].kind, WormEvent::Deliver);
    EXPECT_EQ(trace.dropped, 0u);
}

TEST(WormTracer, ChromeJsonListsAllEvents)
{
    WormTracer tracer(8);
    tracer.record(WormEvent::Replicate, 7, 42, 3, 2, false, 1);
    const std::string json = tracer.snapshot().chromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"replicate\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":7"), std::string::npos);
    EXPECT_NE(json.find("\"clock\":\"cycles\""), std::string::npos);
}

// --- Experiment integration ------------------------------------------

ExperimentParams
quickParams()
{
    ExperimentParams params;
    params.warmup = 1000;
    params.measure = 4000;
    params.drainLimit = 100000;
    params.watchdogQuiet = 50000;
    return params;
}

NetworkConfig
smallNet()
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2; // 16 hosts
    return config;
}

WorkloadParams
lightMcast()
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.03;
    traffic.mcastDegree = 4;
    traffic.payloadFlits = 16;
    return traffic;
}

TEST(Telemetry, DisabledTracingAddsNothing)
{
    NetworkConfig off = smallNet();
    ASSERT_FALSE(off.telemetry.trace);
    NetworkConfig on = smallNet();
    on.telemetry.trace = true;

    const ExperimentResult plain =
        Experiment(off, lightMcast(), quickParams()).run();
    const ExperimentResult traced =
        Experiment(on, lightMcast(), quickParams()).run();

    // Tracing is pure observation: every metric — and therefore the
    // whole result — is unchanged, and no extra registry entries
    // appear when the tracer is armed.
    EXPECT_EQ(plain.trace, nullptr);
    ASSERT_NE(traced.trace, nullptr);
    EXPECT_GT(traced.trace->events.size(), 0u);
    EXPECT_EQ(plain.metrics.size(), traced.metrics.size());
    EXPECT_TRUE(identicalResults(plain, traced));
}

TEST(Telemetry, TracedRunRecordsWormLifecycle)
{
    NetworkConfig config = smallNet();
    config.telemetry.trace = true;
    const ExperimentResult r =
        Experiment(config, lightMcast(), quickParams()).run();
    ASSERT_NE(r.trace, nullptr);

    bool saw_inject = false, saw_decode = false, saw_replicate = false,
         saw_drain = false, saw_deliver = false;
    for (const WormTraceEvent &e : r.trace->events) {
        saw_inject |= e.kind == WormEvent::Inject;
        saw_decode |= e.kind == WormEvent::HeaderDecode;
        saw_replicate |= e.kind == WormEvent::Replicate;
        saw_drain |= e.kind == WormEvent::TailDrain;
        saw_deliver |= e.kind == WormEvent::Deliver;
    }
    EXPECT_TRUE(saw_inject);
    EXPECT_TRUE(saw_decode);
    EXPECT_TRUE(saw_replicate); // degree-4 multicast must replicate
    EXPECT_TRUE(saw_drain);
    EXPECT_TRUE(saw_deliver);
}

TEST(Telemetry, ExportsAreByteIdenticalAcrossRepeatedRuns)
{
    NetworkConfig config = smallNet();
    config.telemetry.trace = true;
    const ExperimentResult a =
        Experiment(config, lightMcast(), quickParams()).run();
    const ExperimentResult b =
        Experiment(config, lightMcast(), quickParams()).run();
    ASSERT_NE(a.trace, nullptr);
    ASSERT_NE(b.trace, nullptr);
    EXPECT_EQ(a.metrics.toJson(), b.metrics.toJson());
    EXPECT_EQ(a.trace->chromeJson(), b.trace->chromeJson());
    EXPECT_EQ(a.trace->jsonl(), b.trace->jsonl());
}

std::vector<double>
testLoads()
{
    return {0.01, 0.02, 0.03, 0.05};
}

TEST(Telemetry, ParallelSweepAggregatesByteIdenticalToSerial)
{
    NetworkConfig config = smallNet();
    const ExperimentParams params = quickParams();

    SweepOptions serial;
    serial.threads = 1;
    SweepOptions parallel;
    parallel.threads = 4;
    SweepRunner one(serial), four(parallel);
    for (double load : testLoads()) {
        WorkloadParams t = lightMcast();
        t.load = load;
        one.add("run", config, t, params);
        four.add("run", config, t, params);
    }
    one.run();
    four.run();

    ASSERT_EQ(one.results().size(), four.results().size());
    for (std::size_t i = 0; i < one.results().size(); ++i)
        EXPECT_EQ(one.results()[i].metrics.toJson(),
                  four.results()[i].metrics.toJson());
    EXPECT_TRUE(
        one.report().metrics.identical(four.report().metrics));
    EXPECT_EQ(one.report().metrics.toJson(),
              four.report().metrics.toJson());
}

// --- ReportWriter ----------------------------------------------------

TEST(ReportWriter, StreamHasSchemaMetricsAndStatus)
{
    char *buf = nullptr;
    std::size_t len = 0;
    FILE *mem = open_memstream(&buf, &len);
    ASSERT_NE(mem, nullptr);

    SweepReport report;
    report.threads = 2;
    report.metrics.setCounter("network.replications", 12);
    ReportWriter writer(mem, "E3");
    writer.sweep(report);
    std::fclose(mem);
    const std::string out(buf, len);
    std::free(buf);

    EXPECT_NE(out.find("\"schema\":\"mdw-report/1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"experiment\":\"E3\""), std::string::npos);
    EXPECT_NE(out.find("\"metrics\":{\"network.replications\":12}"),
              std::string::npos);
    EXPECT_NE(out.find("{\"status\":\"ok\"}"), std::string::npos);
}

} // namespace
} // namespace mdw
