/**
 * @file
 * Tests for the experiment runner, presets, and config overrides.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/presets.hh"

namespace mdw {
namespace {

ExperimentParams
quickParams()
{
    ExperimentParams params;
    params.warmup = 2000;
    params.measure = 6000;
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

TEST(Experiment, LowLoadRunDrainsAndMeasures)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.02;
    traffic.mcastDegree = 4;
    traffic.payloadFlits = 32;
    Experiment exp(smallNet(), traffic, quickParams());
    const ExperimentResult r = exp.run();
    EXPECT_TRUE(r.drained);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_FALSE(r.saturated);
    EXPECT_GT(r.mcastCount(), 0.0);
    EXPECT_GT(r.mcastLastAvg(), 0.0);
    EXPECT_GE(r.mcastLastAvg(), r.mcastAvgAvg());
    // Delivered ~= offered x degree.
    EXPECT_NEAR(r.deliveredLoad(), r.expectedDelivered,
                r.expectedDelivered * 0.25);
}

TEST(Experiment, AbsurdLoadReportsSaturation)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.8;
    traffic.mcastDegree = 15;
    traffic.payloadFlits = 32;
    ExperimentParams params = quickParams();
    params.drainLimit = 5000; // don't wait for the backlog
    params.watchdogQuiet = 0;
    Experiment exp(smallNet(), traffic, params);
    const ExperimentResult r = exp.run();
    EXPECT_TRUE(r.saturated);
}

TEST(Experiment, DeliveryMultiplierByPattern)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.mcastDegree = 8;
    traffic.pattern = TrafficPattern::UniformUnicast;
    EXPECT_DOUBLE_EQ(
        Experiment(smallNet(), traffic, quickParams())
            .deliveryMultiplier(),
        1.0);
    traffic.pattern = TrafficPattern::MultipleMulticast;
    EXPECT_DOUBLE_EQ(
        Experiment(smallNet(), traffic, quickParams())
            .deliveryMultiplier(),
        8.0);
    traffic.pattern = TrafficPattern::Bimodal;
    traffic.mcastFraction = 0.5;
    EXPECT_DOUBLE_EQ(
        Experiment(smallNet(), traffic, quickParams())
            .deliveryMultiplier(),
        4.5);
}

TEST(Experiment, ResultsAreReproducible)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.03;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 4;
    const ExperimentResult a =
        Experiment(smallNet(), traffic, quickParams()).run();
    const ExperimentResult b =
        Experiment(smallNet(), traffic, quickParams()).run();
    EXPECT_DOUBLE_EQ(a.mcastLastAvg(), b.mcastLastAvg());
    EXPECT_DOUBLE_EQ(a.mcastAvgAvg(), b.mcastAvgAvg());
    EXPECT_DOUBLE_EQ(a.deliveredLoad(), b.deliveredLoad());
}

TEST(Experiment, SweepLoadsPreservesOrderAndMonotonicity)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 4;
    const std::vector<double> loads{0.01, 0.06};
    const auto results =
        sweepLoads(smallNet(), traffic, quickParams(), loads);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_DOUBLE_EQ(results[0].offeredLoad, 0.01);
    EXPECT_DOUBLE_EQ(results[1].offeredLoad, 0.06);
    // More load, more latency.
    EXPECT_GE(results[1].mcastLastAvg(), results[0].mcastLastAvg());
}

TEST(Presets, SchemesConfigureArchAndScheme)
{
    EXPECT_EQ(networkFor(Scheme::CbHw).arch,
              SwitchArch::CentralBuffer);
    EXPECT_EQ(networkFor(Scheme::CbHw).nic.scheme,
              McastScheme::Hardware);
    EXPECT_EQ(networkFor(Scheme::IbHw).arch, SwitchArch::InputBuffer);
    EXPECT_EQ(networkFor(Scheme::SwUmin).arch,
              SwitchArch::CentralBuffer);
    EXPECT_EQ(networkFor(Scheme::SwUmin).nic.scheme,
              McastScheme::Software);
    EXPECT_STREQ(toString(Scheme::CbHw), "cb-hw");
}

TEST(Presets, ApplyOverridesParsesEveryKnob)
{
    Config cli;
    for (const char *token :
         {"arch=ib", "scheme=sw", "k=2", "n=3", "workload.load=0.25",
          "workload.payload=128", "workload.degree=16",
          "workload.pattern=bimodal", "workload.mcastFraction=0.4",
          "routing=replicate-on-up-path",
          "upPolicy=deterministic", "cb.chunks=64", "ib.buffer=600",
          "warmup=123", "measure=456", "seed=9",
          "encoding=multiport"}) {
        cli.parseToken(token);
    }
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(cli, net, traffic, params);

    EXPECT_EQ(net.arch, SwitchArch::InputBuffer);
    EXPECT_EQ(net.nic.scheme, McastScheme::Software);
    EXPECT_EQ(net.fatTreeK, 2);
    EXPECT_EQ(net.fatTreeN, 3);
    EXPECT_EQ(net.sw.variant, RoutingVariant::ReplicateOnUpPath);
    EXPECT_EQ(net.sw.upPolicy, UpPortPolicy::Deterministic);
    EXPECT_EQ(net.cb.cqChunks, 64);
    EXPECT_EQ(net.ib.bufferFlits, 600);
    EXPECT_EQ(net.nic.encoding, McastEncoding::Multiport);
    EXPECT_EQ(net.seed, 9u);
    EXPECT_DOUBLE_EQ(traffic.load, 0.25);
    EXPECT_EQ(traffic.payloadFlits, 128);
    EXPECT_EQ(traffic.mcastDegree, 16);
    EXPECT_EQ(traffic.pattern, TrafficPattern::Bimodal);
    EXPECT_DOUBLE_EQ(traffic.mcastFraction, 0.4);
    EXPECT_EQ(params.warmup, 123u);
    EXPECT_EQ(params.measure, 456u);
}

TEST(PresetsDeath, UnknownKeyIsFatal)
{
    Config cli;
    cli.parseToken("tpyo=1");
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    EXPECT_DEATH(applyOverrides(cli, net, traffic, params),
                 "unknown config keys");
}

TEST(PresetsDeath, BadEnumValueIsFatal)
{
    Config cli;
    cli.parseToken("arch=quantum");
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    EXPECT_DEATH(applyOverrides(cli, net, traffic, params),
                 "unknown arch");
}

TEST(Experiment, PercentilesBracketTheMean)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.04;
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 4;
    const ExperimentResult r =
        Experiment(smallNet(), traffic, quickParams()).run();
    ASSERT_GT(r.mcastCount(), 0.0);
    EXPECT_GE(r.mcastLastP95(), r.mcastLastAvg() * 0.8);
    EXPECT_GT(r.mcastLastP95(), 0.0);
}

TEST(Experiment, HotSpotPatternRuns)
{
    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::HotSpot;
    traffic.load = 0.05;
    traffic.payloadFlits = 32;
    traffic.hotFraction = 0.3;
    const ExperimentResult r =
        Experiment(smallNet(), traffic, quickParams()).run();
    EXPECT_TRUE(r.drained);
    EXPECT_GT(r.unicastCount(), 0.0);
    EXPECT_DOUBLE_EQ(r.expectedDelivered, r.offeredLoad);
}

TEST(Network, DumpStateSmoke)
{
    Network net(smallNet());
    net.nic(0).postMulticast(DestSet::of(16, {3, 7}), 32, 0);
    net.sim().run(20);
    // Dump to /dev/null just to exercise the formatting paths.
    FILE *sink = std::fopen("/dev/null", "w");
    ASSERT_NE(sink, nullptr);
    net.dumpState(sink);
    std::fclose(sink);
}

TEST(Experiment, LinkUtilizationTracksLoad)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.payloadFlits = 32;
    traffic.mcastDegree = 4;
    traffic.load = 0.02;
    const ExperimentResult low =
        Experiment(smallNet(), traffic, quickParams()).run();
    traffic.load = 0.06;
    const ExperimentResult high =
        Experiment(smallNet(), traffic, quickParams()).run();

    EXPECT_GT(low.meanLinkUtil(), 0.0);
    EXPECT_GE(low.maxLinkUtil(), low.meanLinkUtil());
    EXPECT_LE(low.maxLinkUtil(), 1.0);
    // Triple the load, busier links.
    EXPECT_GT(high.meanLinkUtil(), low.meanLinkUtil() * 1.5);
}

TEST(Experiment, RowFormattingContainsLabel)
{
    ExperimentResult r;
    r.offeredLoad = 0.1;
    const std::string row = formatResultRow("cb-hw", r);
    EXPECT_NE(row.find("cb-hw"), std::string::npos);
    EXPECT_FALSE(resultHeader().empty());
}

} // namespace
} // namespace mdw
