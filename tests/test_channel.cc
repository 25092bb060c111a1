/**
 * @file
 * Unit tests for delay-stamped channels and credit channels.
 */

#include <gtest/gtest.h>

#include "sim/channel.hh"

namespace mdw {
namespace {

/** Link hook that delivers every item a fixed number of cycles after
 *  its send (or drops it), counting deliveries. */
struct FixedDelayHook : ChannelHook<int>
{
    Cycle latency = 5;
    bool drop = false;
    int received = 0;

    Cycle
    onSend(int &, Cycle now) override
    {
        return drop ? kNoCycle : now + latency;
    }
    void onReceive(const int &) override { ++received; }
};

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

// The channel contract every reader relies on (busy, peek,
// nextArrival, inFlight, totalSends), pinned per mode; the boundary
// mode cases live with the sharding tests.

TEST(ChannelContract, Direct)
{
    Channel<int> ch(2);
    EXPECT_FALSE(ch.busy(10));
    EXPECT_EQ(ch.peek(10), nullptr);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 0u);
    EXPECT_EQ(ch.totalSends(), 0u);

    ch.send(1, 10);
    EXPECT_TRUE(ch.busy(10));
    EXPECT_FALSE(ch.busy(11));
    EXPECT_EQ(ch.peek(11), nullptr);
    ASSERT_NE(ch.peek(12), nullptr);
    EXPECT_EQ(*ch.peek(12), 1);
    EXPECT_EQ(ch.nextArrival(), 12u);
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_EQ(ch.totalSends(), 1u);

    ch.send(2, 11);
    EXPECT_TRUE(ch.busy(11));
    EXPECT_EQ(ch.nextArrival(), 12u);
    EXPECT_EQ(ch.inFlight(), 2u);
    EXPECT_EQ(ch.totalSends(), 2u);

    EXPECT_EQ(ch.receive(12), 1);
    EXPECT_FALSE(ch.busy(12));
    EXPECT_EQ(ch.peek(12), nullptr);
    EXPECT_EQ(ch.nextArrival(), 13u);
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_EQ(ch.receive(13), 2);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 0u);
    EXPECT_EQ(ch.totalSends(), 2u);
}

TEST(ChannelContract, Hooked)
{
    FixedDelayHook hook;
    Channel<int> ch(1);
    Channel<int>::Side side;
    ch.setSide(&side);
    ch.setHook(&hook);
    EXPECT_EQ(ch.hook(), &hook);
    EXPECT_FALSE(ch.busy(10));

    // The hook, not the wire delay, sets the arrival cycle.
    ch.send(1, 10);
    EXPECT_TRUE(ch.busy(10));
    EXPECT_FALSE(ch.busy(11));
    EXPECT_EQ(ch.peek(14), nullptr);
    ASSERT_NE(ch.peek(15), nullptr);
    EXPECT_EQ(*ch.peek(15), 1);
    EXPECT_EQ(ch.nextArrival(), 15u);
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_EQ(ch.totalSends(), 1u);

    ch.send(2, 11);
    EXPECT_TRUE(ch.busy(11));
    EXPECT_EQ(ch.nextArrival(), 15u);
    EXPECT_EQ(ch.inFlight(), 2u);
    EXPECT_EQ(ch.totalSends(), 2u);

    EXPECT_EQ(ch.receive(15), 1);
    EXPECT_EQ(hook.received, 1);
    EXPECT_EQ(ch.nextArrival(), 16u);
    EXPECT_EQ(ch.receive(16), 2);
    EXPECT_EQ(hook.received, 2);
    EXPECT_EQ(ch.inFlight(), 0u);

    // A dropped item still occupies its send cycle and counts as
    // sent, but never arrives.
    hook.drop = true;
    ch.send(3, 20);
    EXPECT_TRUE(ch.busy(20));
    EXPECT_EQ(ch.peek(40), nullptr);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 0u);
    EXPECT_EQ(ch.totalSends(), 3u);

    // Detaching restores the wire delay.
    ch.setHook(nullptr);
    EXPECT_EQ(ch.hook(), nullptr);
    ch.send(4, 30);
    EXPECT_TRUE(ch.busy(30));
    EXPECT_EQ(ch.nextArrival(), 31u);
    EXPECT_EQ(ch.totalSends(), 4u);
}

TEST(ChannelContract, CreditDirect)
{
    CreditChannel ch(2);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 0);
    EXPECT_EQ(ch.totalSends(), 0u);

    ch.send(2, 10);
    ch.send(3, 10); // merged with the first grant
    ch.send(1, 11);
    EXPECT_EQ(ch.nextArrival(), 12u);
    EXPECT_EQ(ch.inFlight(), 6);
    EXPECT_EQ(ch.totalSends(), 6u);

    EXPECT_EQ(ch.receive(11), 0);
    EXPECT_EQ(ch.receive(12), 5);
    EXPECT_EQ(ch.nextArrival(), 13u);
    EXPECT_EQ(ch.inFlight(), 1);
    EXPECT_EQ(ch.receive(13), 1);
    EXPECT_EQ(ch.nextArrival(), kNoCycle);
    EXPECT_EQ(ch.inFlight(), 0);
    EXPECT_EQ(ch.totalSends(), 6u);
}

TEST(CreditChannelDeath, NonPositiveGrantPanics)
{
    CreditChannel ch(1);
    EXPECT_DEATH(ch.send(0, 0), "non-positive");
}

} // namespace
} // namespace mdw
