/**
 * @file
 * Tests for the telemetry subsystem: metric value/snapshot semantics,
 * ring-buffer tracing, zero-overhead guarantees when tracing is off,
 * and byte-identical exports across repeated and parallel runs.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "core/report.hh"
#include "core/sweep.hh"
#include "sim/telemetry.hh"

namespace mdw {
namespace {

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
    reg.registerCounter("c", &c);
    reg.registerSampler("s", &s);
    reg.registerGauge("g", [] { return 2.5; });
    reg.registerIntGauge("i", [] { return std::uint64_t{9}; });

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
