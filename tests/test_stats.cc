/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hh"
#include "sim/stats.hh"

namespace mdw {
namespace {

TEST(Sampler, EmptyIsZero)
{
    Sampler s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Sampler, MeanAndMinMax)
{
    Sampler s;
    for (double x : {4.0, 8.0, 6.0, 2.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 8.0);
    EXPECT_DOUBLE_EQ(s.sum(), 20.0);
}

TEST(Sampler, VarianceMatchesDefinition)
{
    Sampler s;
    const double xs[] = {1, 2, 3, 4, 5};
    for (double x : xs)
        s.add(x);
    // Population variance of 1..5 = 2.
    EXPECT_NEAR(s.variance(), 2.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(2.0), 1e-12);
}

TEST(Sampler, MergeEqualsCombinedStream)
{
    Sampler a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = i * 0.37;
        a.add(x);
        all.add(x);
    }
    for (int i = 0; i < 70; ++i) {
        const double x = 100 - i * 0.21;
        b.add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Sampler, MergeWithEmpty)
{
    Sampler a, b;
    a.add(5.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Sampler, MergeEmptyIntoEmpty)
{
    Sampler a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.variance(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
}

TEST(Sampler, MergeIsOrderIndependentWithinTolerance)
{
    Sampler a1, b1, a2, b2;
    for (int i = 0; i < 40; ++i) {
        a1.add(3.0 + i * 0.11);
        a2.add(3.0 + i * 0.11);
    }
    for (int i = 0; i < 90; ++i) {
        b1.add(-2.0 + i * 0.43);
        b2.add(-2.0 + i * 0.43);
    }
    a1.merge(b1); // A then B
    b2.merge(a2); // B then A
    EXPECT_EQ(a1.count(), b2.count());
    // Welford merging is not associative in exact FP arithmetic, so
    // mean/variance agree to tolerance, not bitwise.
    EXPECT_NEAR(a1.mean(), b2.mean(), 1e-9);
    EXPECT_NEAR(a1.variance(), b2.variance(), 1e-9);
    // min/max are exact in either order.
    EXPECT_DOUBLE_EQ(a1.min(), b2.min());
    EXPECT_DOUBLE_EQ(a1.max(), b2.max());
}

TEST(Sampler, MergeManyChunksMatchesSingleStream)
{
    // Split one stream into per-run chunks the way the sweep runner
    // does, then merge in submission order.
    Sampler whole;
    Sampler chunks[5];
    for (int i = 0; i < 500; ++i) {
        const double x = (i % 7) * 1.3 - (i % 3) * 0.7 + i * 0.01;
        whole.add(x);
        chunks[i / 100].add(x);
    }
    Sampler merged;
    for (const Sampler &chunk : chunks)
        merged.merge(chunk);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(Sampler, MergeMinMaxFromBothSides)
{
    Sampler a, b;
    a.add(5.0);
    a.add(9.0);
    b.add(-4.0);
    b.add(7.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.min(), -4.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 4u);
}

TEST(Histogram, CountsAndOverflow)
{
    Histogram h(10.0, 5); // bins [0,50), overflow beyond
    h.add(0.0);
    h.add(9.99);
    h.add(10.0);
    h.add(49.0);
    h.add(50.0);
    h.add(1000.0);
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bins()[0], 2u);
    EXPECT_EQ(h.bins()[1], 1u);
    EXPECT_EQ(h.bins()[4], 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, PercentileMedian)
{
    Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.9), 90.0, 1.5);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 99.0);
}

TEST(Histogram, PercentileAllInOverflowReturnsMax)
{
    Histogram h(1.0, 4);
    h.add(100.0);
    h.add(200.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 200.0);
}

TEST(Histogram, MergeAddsBins)
{
    Histogram a(1.0, 10), b(1.0, 10);
    a.add(1.0);
    b.add(1.5);
    b.add(20.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.bins()[1], 2u);
    EXPECT_EQ(a.overflow(), 1u);
}

TEST(Histogram, MergeRebinsFinerIntoCoarser)
{
    Histogram coarse(2.0, 4), fine(1.0, 8);
    coarse.add(1.0); // coarse bin 0
    fine.add(3.0);   // fine bin 3 -> coarse bin 1
    fine.add(5.0);   // fine bin 5 -> coarse bin 2
    coarse.merge(fine);
    EXPECT_DOUBLE_EQ(coarse.binWidth(), 2.0);
    EXPECT_EQ(coarse.count(), 3u);
    EXPECT_EQ(coarse.bins()[0], 1u);
    EXPECT_EQ(coarse.bins()[1], 1u);
    EXPECT_EQ(coarse.bins()[2], 1u);
    EXPECT_EQ(coarse.overflow(), 0u);
}

TEST(Histogram, MergeCoarsensSelfWhenOtherIsWider)
{
    Histogram fine(1.0, 8), coarse(4.0, 2);
    fine.add(0.5);   // fine bin 0 -> rebinned bin 0
    fine.add(6.0);   // fine bin 6 -> rebinned bin 1
    coarse.add(5.0); // coarse bin 1
    fine.merge(coarse);
    EXPECT_DOUBLE_EQ(fine.binWidth(), 4.0);
    EXPECT_EQ(fine.count(), 3u);
    EXPECT_EQ(fine.bins()[0], 1u);
    EXPECT_EQ(fine.bins()[1], 2u);
}

TEST(Histogram, MergeEmptyOtherIsNoOpEvenWithOddWidth)
{
    Histogram a(1.0, 4), empty(0.3, 7);
    a.add(2.0);
    a.merge(empty); // nothing to misfile; must not fatal
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.binWidth(), 1.0);
}

TEST(Histogram, MergeRejectsIncommensurateWidths)
{
    Histogram a(1.0, 4), b(2.5, 4);
    a.add(1.0);
    b.add(1.0);
    EXPECT_DEATH(a.merge(b), "incommensurate bin widths");
}

TEST(Histogram, NegativeClampsToFirstBin)
{
    Histogram h(1.0, 4);
    h.add(-5.0);
    EXPECT_EQ(h.bins()[0], 1u);
}

TEST(TimeAverage, PiecewiseConstant)
{
    TimeAverage t;
    t.update(0.0, 0);
    t.update(10.0, 100); // value 0 over [0,100)
    t.update(20.0, 200); // value 10 over [100,200)
    // At cycle 200: (0*100 + 10*100) / 200 = 5.
    EXPECT_DOUBLE_EQ(t.average(200), 5.0);
    // At cycle 400, value 20 held for [200,400).
    EXPECT_DOUBLE_EQ(t.average(400), (10.0 * 100 + 20.0 * 200) / 400.0);
    EXPECT_DOUBLE_EQ(t.current(), 20.0);
    EXPECT_DOUBLE_EQ(t.peak(), 20.0);
}

TEST(TimeAverage, ResetKeepsValue)
{
    TimeAverage t;
    t.update(8.0, 10);
    t.reset(100);
    EXPECT_DOUBLE_EQ(t.average(200), 8.0);
    EXPECT_DOUBLE_EQ(t.current(), 8.0);
}

TEST(TimeAverage, SamplingOnChangeIsBitIdentical)
{
    // The CB switch samples its central-queue occupancy only when it
    // changes. A repeated sample only adds value x elapsed cycles to
    // the weighted sum, and with integer values and cycle counts every
    // such sum is exact in a double, so dropping the repeats (also
    // across reset()) must not change a bit.
    Rng rng(11);
    TimeAverage every;
    TimeAverage onChange;
    double value = 0.0;
    int checks = 0;
    for (Cycle now = 0; now < 120000; ++now) {
        if (now == 30000 || now == 30001 || now == 90000) {
            every.reset(now);
            onChange.reset(now);
        }
        // Runs of equal values: a change (possibly to the same value)
        // on one cycle in eight, to 0..128 chunks.
        if (rng.below(8) == 0)
            value = static_cast<double>(rng.below(129));
        every.update(value, now);
        if (value != onChange.current())
            onChange.update(value, now);
        if (now % 613 == 0) {
            ++checks;
            EXPECT_EQ(every.average(now), onChange.average(now)) << now;
            EXPECT_EQ(every.average(now + 37), onChange.average(now + 37))
                << now;
            EXPECT_EQ(every.peak(), onChange.peak()) << now;
            EXPECT_EQ(every.current(), onChange.current()) << now;
        }
    }
    EXPECT_GT(checks, 150);
    EXPECT_GT(every.average(120000), 0.0);
    EXPECT_EQ(every.average(120000), onChange.average(120000));
}

TEST(Counter, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

} // namespace
} // namespace mdw
