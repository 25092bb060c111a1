/**
 * @file
 * Unit tests for delay-stamped channels and credit channels.
 */

#include <gtest/gtest.h>

#include "sim/channel.hh"

namespace mdw {
namespace {

TEST(Channel, DeliversAfterDelay)
{
    Channel<int> ch(2);
    ch.send(42, 10);
    EXPECT_EQ(ch.peek(10), nullptr);
    EXPECT_EQ(ch.peek(11), nullptr);
    ASSERT_NE(ch.peek(12), nullptr);
    EXPECT_EQ(*ch.peek(12), 42);
    EXPECT_EQ(ch.receive(12), 42);
    EXPECT_EQ(ch.peek(12), nullptr);
}

TEST(Channel, PreservesOrder)
{
    Channel<int> ch(1);
    ch.send(1, 0);
    ch.send(2, 1);
    ch.send(3, 2);
    EXPECT_EQ(ch.receive(5), 1);
    EXPECT_EQ(ch.receive(5), 2);
    EXPECT_EQ(ch.receive(5), 3);
}

TEST(Channel, BusyWithinCycleOnly)
{
    Channel<int> ch(1);
    EXPECT_FALSE(ch.busy(0));
    ch.send(7, 0);
    EXPECT_TRUE(ch.busy(0));
    EXPECT_FALSE(ch.busy(1));
    ch.send(8, 1);
    EXPECT_TRUE(ch.busy(1));
}

TEST(Channel, InFlightCount)
{
    Channel<int> ch(3);
    ch.send(1, 0);
    ch.send(2, 1);
    EXPECT_EQ(ch.inFlight(), 2u);
    (void)ch.receive(3);
    EXPECT_EQ(ch.inFlight(), 1u);
}

TEST(ChannelDeath, TwoSendsSameCyclePanics)
{
    Channel<int> ch(1);
    ch.send(1, 5);
    EXPECT_DEATH(ch.send(2, 5), "two sends");
}

TEST(ChannelDeath, ReceiveWithNothingPanics)
{
    Channel<int> ch(1);
    EXPECT_DEATH(ch.receive(0), "nothing arrived");
    ch.send(1, 0);
    EXPECT_DEATH(ch.receive(0), "nothing arrived");
}

TEST(ChannelDeath, ZeroDelayRejected)
{
    EXPECT_DEATH(Channel<int>(0), "delay must be >= 1");
}

TEST(CreditChannel, MergesSameCycleGrants)
{
    CreditChannel ch(1);
    ch.send(2, 0);
    ch.send(3, 0);
    EXPECT_EQ(ch.inFlight(), 5);
    EXPECT_EQ(ch.receive(0), 0);
    EXPECT_EQ(ch.receive(1), 5);
    EXPECT_EQ(ch.inFlight(), 0);
}

TEST(CreditChannel, AccumulatesAcrossCycles)
{
    CreditChannel ch(2);
    ch.send(1, 0);
    ch.send(1, 1);
    ch.send(1, 2);
    EXPECT_EQ(ch.receive(3), 2); // grants from cycles 0 and 1
    EXPECT_EQ(ch.receive(4), 1);
    EXPECT_EQ(ch.receive(5), 0);
}

TEST(CreditChannelDeath, NonPositiveGrantPanics)
{
    CreditChannel ch(1);
    EXPECT_DEATH(ch.send(0, 0), "non-positive");
}

} // namespace
} // namespace mdw
