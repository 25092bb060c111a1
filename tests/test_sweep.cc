/**
 * @file
 * Tests for the deterministic parallel sweep runner — above all the
 * headline guarantee: the same base seed produces bit-identical
 * results at any thread count.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/presets.hh"
#include "core/sweep.hh"
#include "sim/rng.hh"

namespace mdw {
namespace {

/** Small, fast system: 16 hosts, short phases. */
ExperimentParams
quickParams()
{
    ExperimentParams params;
    params.warmup = 500;
    params.measure = 1500;
    params.drainLimit = 30000;
    params.watchdogQuiet = 50000;
    return params;
}

/**
 * A fig_multiple_multicast-style sweep: every scheme at every load,
 * in presentation order.
 */
SweepRunner
makeSweep(SweepOptions options)
{
    SweepRunner runner(options);
    for (double load : {0.02, 0.06}) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            net.fatTreeN = 2; // 16 hosts
            WorkloadParams traffic = defaultTraffic();
            traffic.mcastDegree = 4;
            traffic.load = load;
            runner.add(toString(scheme), net, traffic, quickParams());
        }
    }
    return runner;
}

void
expectSamplersEqual(const Sampler &a, const Sampler &b)
{
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
}

TEST(Sweep, ThreadCountsProduceIdenticalResults)
{
    SweepOptions serial;
    serial.threads = 1;
    serial.baseSeed = 2024;
    serial.deriveSeeds = true;
    SweepRunner one = makeSweep(serial);

    SweepOptions parallel = serial;
    parallel.threads = 4;
    SweepRunner four = makeSweep(parallel);

    const std::vector<ExperimentResult> &a = one.run();
    const std::vector<ExperimentResult> &b = four.run();

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(identicalResults(a[i], b[i]))
            << "run " << i << " (" << one.report().runs[i].label
            << ") differs between 1 and 4 threads";
        // Some runs must actually measure something, or the
        // comparison is vacuous.
        EXPECT_GT(a[i].mcastCount() + a[i].unicastCount(), 0.0);
    }
    EXPECT_EQ(one.report().threads, 1);
    EXPECT_EQ(four.report().threads, 4);

    // The merged aggregates are built in submission order, so they
    // are bit-identical too.
    expectSamplersEqual(one.report().unicastLatency(),
                        four.report().unicastLatency());
    expectSamplersEqual(one.report().mcastLastLatency(),
                        four.report().mcastLastLatency());
    expectSamplersEqual(one.report().mcastAvgLatency(),
                        four.report().mcastAvgLatency());
}

TEST(Sweep, SerialRunnerMatchesDirectExperiments)
{
    SweepRunner runner = makeSweep(SweepOptions{});
    const std::vector<ExperimentResult> &results = runner.run();

    std::size_t idx = 0;
    for (double load : {0.02, 0.06}) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            net.fatTreeN = 2;
            WorkloadParams traffic = defaultTraffic();
            traffic.mcastDegree = 4;
            traffic.load = load;
            const ExperimentResult direct =
                Experiment(net, traffic, quickParams()).run();
            EXPECT_TRUE(identicalResults(direct, results[idx]))
                << "run " << idx;
            ++idx;
        }
    }
}

TEST(Sweep, DerivedSeedsAreRecordedAndDistinct)
{
    SweepOptions options;
    options.threads = 2;
    options.baseSeed = 99;
    options.deriveSeeds = true;
    SweepRunner runner = makeSweep(options);
    runner.run();

    std::set<std::uint64_t> seen;
    const SweepReport &report = runner.report();
    ASSERT_EQ(report.runs.size(), runner.size());
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const SweepRunRecord &record = report.runs[i];
        EXPECT_EQ(record.index, i);
        EXPECT_EQ(record.networkSeed, Rng::streamSeed(99, 2 * i));
        EXPECT_EQ(record.trafficSeed, Rng::streamSeed(99, 2 * i + 1));
        seen.insert(record.networkSeed);
        seen.insert(record.trafficSeed);
    }
    EXPECT_EQ(seen.size(), 2 * report.runs.size());
    EXPECT_TRUE(report.seedsDerived);
    EXPECT_EQ(report.baseSeed, 99u);
}

TEST(Sweep, UnderivedSeedsPassThrough)
{
    SweepRunner runner = makeSweep(SweepOptions{});
    runner.run();
    for (const SweepRunRecord &record : runner.report().runs) {
        EXPECT_EQ(record.networkSeed, defaultNetwork().seed);
        EXPECT_EQ(record.trafficSeed, defaultTraffic().seed);
    }
}

TEST(Sweep, ReportIsAnAuditTrail)
{
    SweepRunner runner = makeSweep(SweepOptions{});
    runner.run();

    const SweepReport &report = runner.report();
    std::size_t saturated = 0;
    for (std::size_t i = 0; i < runner.size(); ++i) {
        EXPECT_GE(report.runs[i].wallMs, 0.0);
        EXPECT_EQ(report.runs[i].saturated,
                  runner.results()[i].saturated);
        EXPECT_EQ(report.runs[i].drained, runner.results()[i].drained);
        saturated += report.runs[i].saturated;
    }
    EXPECT_EQ(report.saturatedCount(), saturated);
    EXPECT_GE(report.wallMs, 0.0);

    const std::string summary = report.summary();
    EXPECT_NE(summary.find("6 runs"), std::string::npos);
    EXPECT_NE(summary.find("cb-hw"), std::string::npos);
    EXPECT_NE(summary.find("sw-umin"), std::string::npos);
}

TEST(Sweep, ZeroThreadsResolvesToHardwareConcurrency)
{
    SweepOptions options;
    options.threads = 0;
    SweepRunner runner = makeSweep(options);
    runner.run();
    EXPECT_GE(runner.report().threads, 1);
    EXPECT_EQ(runner.results().size(), 6u);
}

TEST(Sweep, MoreThreadsThanRunsIsFine)
{
    SweepOptions serial;
    SweepRunner reference = makeSweep(serial);

    SweepOptions oversubscribed;
    oversubscribed.threads = 16;
    SweepRunner runner = makeSweep(oversubscribed);

    reference.run();
    runner.run();
    // The pool is clamped to the number of runs.
    EXPECT_LE(runner.report().threads, 6);
    for (std::size_t i = 0; i < runner.size(); ++i) {
        EXPECT_TRUE(identicalResults(reference.results()[i],
                                     runner.results()[i]));
    }
}

TEST(Sweep, ResultsEmptyBeforeRun)
{
    SweepRunner runner = makeSweep(SweepOptions{});
    EXPECT_TRUE(runner.results().empty());
    EXPECT_EQ(runner.size(), 6u);
}

TEST(Sweep, SweepLoadsParallelMatchesSerial)
{
    NetworkConfig net = defaultNetwork();
    net.fatTreeN = 2;
    WorkloadParams traffic = defaultTraffic();
    traffic.mcastDegree = 4;
    const std::vector<double> loads = {0.02, 0.04, 0.08};

    const std::vector<ExperimentResult> serial =
        sweepLoads(net, traffic, quickParams(), loads);
    const std::vector<ExperimentResult> parallel =
        sweepLoads(net, traffic, quickParams(), loads, 3);

    ASSERT_EQ(serial.size(), loads.size());
    ASSERT_EQ(parallel.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
        EXPECT_EQ(serial[i].offeredLoad, loads[i]);
        EXPECT_TRUE(identicalResults(serial[i], parallel[i]))
            << "load " << loads[i];
    }
}

} // namespace
} // namespace mdw
