/**
 * @file
 * Tests for the synthetic and scripted traffic generators.
 */

#include <gtest/gtest.h>

#include "workload/traffic.hh"

namespace mdw {
namespace {

TEST(SyntheticTraffic, RateMatchesLoad)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::UniformUnicast;
    params.load = 0.2;
    params.payloadFlits = 50;
    SyntheticTraffic gen(16, params);
    EXPECT_DOUBLE_EQ(gen.messageRate(), 0.004);

    // Over many cycles the per-node message count should match.
    std::vector<MessageSpec> out;
    constexpr Cycle kCycles = 200000;
    for (Cycle c = 0; c < kCycles; ++c)
        gen.poll(3, c, out);
    const double expected = 0.004 * static_cast<double>(kCycles);
    EXPECT_NEAR(static_cast<double>(out.size()), expected,
                expected * 0.1);
}

TEST(SyntheticTraffic, UnicastSpecsAreValid)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::UniformUnicast;
    params.load = 0.5;
    params.payloadFlits = 10;
    SyntheticTraffic gen(8, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 5000; ++c)
        gen.poll(2, c, out);
    ASSERT_FALSE(out.empty());
    for (const auto &spec : out) {
        EXPECT_FALSE(spec.multicast);
        EXPECT_NE(spec.dest, 2);
        EXPECT_GE(spec.dest, 0);
        EXPECT_LT(spec.dest, 8);
        EXPECT_EQ(spec.payloadFlits, 10);
    }
}

TEST(SyntheticTraffic, UnicastDestinationsRoughlyUniform)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::UniformUnicast;
    params.load = 1.0;
    params.payloadFlits = 1;
    SyntheticTraffic gen(4, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 30000; ++c)
        gen.poll(0, c, out);
    int counts[4] = {};
    for (const auto &spec : out)
        ++counts[spec.dest];
    EXPECT_EQ(counts[0], 0);
    for (int d = 1; d < 4; ++d)
        EXPECT_NEAR(counts[d], out.size() / 3.0, out.size() * 0.05);
}

TEST(SyntheticTraffic, MulticastDegreeAndSelfExclusion)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::MultipleMulticast;
    params.load = 0.5;
    params.payloadFlits = 10;
    params.mcastDegree = 5;
    SyntheticTraffic gen(16, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 2000; ++c)
        gen.poll(7, c, out);
    ASSERT_FALSE(out.empty());
    for (const auto &spec : out) {
        EXPECT_TRUE(spec.multicast);
        EXPECT_EQ(spec.dests.count(), 5u);
        EXPECT_FALSE(spec.dests.test(7));
    }
}

TEST(SyntheticTraffic, BimodalFraction)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::Bimodal;
    params.load = 1.0;
    params.payloadFlits = 1;
    params.mcastDegree = 3;
    params.mcastFraction = 0.25;
    SyntheticTraffic gen(16, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 40000; ++c)
        gen.poll(1, c, out);
    std::size_t mcasts = 0;
    for (const auto &spec : out)
        mcasts += spec.multicast;
    EXPECT_NEAR(static_cast<double>(mcasts) /
                    static_cast<double>(out.size()),
                0.25, 0.02);
}

TEST(SyntheticTraffic, HonorsStartAndStop)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::UniformUnicast;
    params.load = 1.0;
    params.payloadFlits = 1;
    params.startCycle = 100;
    params.stopCycle = 200;
    SyntheticTraffic gen(4, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 100; ++c)
        gen.poll(0, c, out);
    EXPECT_TRUE(out.empty());
    for (Cycle c = 100; c < 500; ++c)
        gen.poll(0, c, out);
    // ~1 message per cycle inside [100, 200) only.
    EXPECT_NEAR(static_cast<double>(out.size()), 100.0, 25.0);
}

TEST(SyntheticTraffic, DeterministicAcrossInstances)
{
    WorkloadParams params;
    params.load = 0.3;
    params.payloadFlits = 16;
    SyntheticTraffic a(16, params), b(16, params);
    std::vector<MessageSpec> out_a, out_b;
    for (Cycle c = 0; c < 3000; ++c) {
        a.poll(4, c, out_a);
        b.poll(4, c, out_b);
    }
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i)
        EXPECT_EQ(out_a[i].dests.toVector(), out_b[i].dests.toVector());
}

TEST(SyntheticTraffic, ZeroLoadGeneratesNothing)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::UniformUnicast;
    params.load = 0.0;
    SyntheticTraffic gen(8, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 1000; ++c)
        gen.poll(0, c, out);
    EXPECT_TRUE(out.empty());
}

TEST(SyntheticTraffic, HotSpotFractionTargetsHotNode)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::HotSpot;
    params.load = 1.0;
    params.payloadFlits = 1;
    params.hotFraction = 0.3;
    params.hotNode = 5;
    SyntheticTraffic gen(16, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 40000; ++c)
        gen.poll(2, c, out);
    std::size_t hot = 0;
    for (const auto &spec : out) {
        EXPECT_FALSE(spec.multicast);
        hot += spec.dest == 5;
    }
    // 0.3 direct + (0.7 / 15) from the uniform remainder.
    const double expect = 0.3 + 0.7 / 15.0;
    EXPECT_NEAR(static_cast<double>(hot) /
                    static_cast<double>(out.size()),
                expect, 0.02);
}

TEST(SyntheticTraffic, HotNodeItselfSendsUniform)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::HotSpot;
    params.load = 1.0;
    params.payloadFlits = 1;
    params.hotFraction = 1.0;
    params.hotNode = 0;
    SyntheticTraffic gen(8, params);
    std::vector<MessageSpec> out;
    for (Cycle c = 0; c < 2000; ++c)
        gen.poll(0, c, out); // polling the hot node itself
    ASSERT_FALSE(out.empty());
    for (const auto &spec : out)
        EXPECT_NE(spec.dest, 0); // never to itself
}

TEST(SyntheticTrafficDeath, BadHotNodePanics)
{
    WorkloadParams params;
    params.pattern = TrafficPattern::HotSpot;
    params.hotNode = 99;
    EXPECT_DEATH(SyntheticTraffic(8, params), "hot node");
}

TEST(ScriptedTraffic, DeliversAtExactCycles)
{
    ScriptedTraffic script;
    MessageSpec spec;
    spec.dest = 3;
    spec.payloadFlits = 7;
    script.post(10, 1, spec);
    script.post(10, 1, spec);
    script.post(20, 2, spec);
    EXPECT_EQ(script.pending(), 3u);

    std::vector<MessageSpec> out;
    script.poll(1, 9, out);
    EXPECT_TRUE(out.empty());
    script.poll(2, 10, out); // wrong node
    EXPECT_TRUE(out.empty());
    script.poll(1, 10, out);
    EXPECT_EQ(out.size(), 2u);
    script.poll(2, 20, out);
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(script.pending(), 0u);
}

// The exact next-event lookup that lets the fast path sleep a NIC
// straight through to its next scripted posting.
TEST(ScriptedTraffic, ExactNextArrival)
{
    ScriptedTraffic script;
    MessageSpec spec;
    spec.dest = 3;
    spec.payloadFlits = 7;
    script.post(10, 1, spec);
    script.post(40, 1, spec);
    script.post(20, 2, spec);

    EXPECT_EQ(script.nextArrival(1, 0), 10u);
    EXPECT_EQ(script.nextArrival(2, 0), 20u);
    EXPECT_EQ(script.nextArrival(0, 0), kNoCycle) << "unscripted node";
    // An overdue posting is reported as "now", never in the past.
    EXPECT_EQ(script.nextArrival(1, 15), 15u);

    std::vector<MessageSpec> out;
    script.poll(1, 15, out);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(script.nextArrival(1, 15), 40u);
    script.poll(1, 40, out);
    EXPECT_EQ(script.nextArrival(1, 41), kNoCycle);
    EXPECT_FALSE(script.exhausted());
    script.poll(2, 20, out);
    EXPECT_TRUE(script.exhausted());
}

} // namespace
} // namespace mdw
