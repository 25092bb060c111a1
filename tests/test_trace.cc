/**
 * @file
 * Tests for the trace-driven workload: in-memory replay, file
 * round-trips, parse errors, and an end-to-end run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/presets.hh"
#include "workload/trace.hh"

namespace mdw {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

TraceEvent
unicastEvent(Cycle when, NodeId src, NodeId dest, int payload)
{
    TraceEvent event;
    event.when = when;
    event.src = src;
    event.spec.multicast = false;
    event.spec.dest = dest;
    event.spec.payloadFlits = payload;
    return event;
}

TraceEvent
mcastEvent(Cycle when, NodeId src, std::initializer_list<NodeId> dests,
           int payload, std::size_t hosts = 16)
{
    TraceEvent event;
    event.when = when;
    event.src = src;
    event.spec.multicast = true;
    event.spec.dests = DestSet::of(hosts, dests);
    event.spec.payloadFlits = payload;
    return event;
}

TEST(TraceTraffic, ReplaysAtExactCycles)
{
    TraceTraffic trace(16);
    trace.add(unicastEvent(10, 1, 2, 8));
    trace.add(unicastEvent(5, 1, 3, 8));
    trace.add(mcastEvent(7, 2, {4, 5}, 16));
    EXPECT_EQ(trace.pending(), 3u);
    EXPECT_EQ(trace.size(), 3u);

    std::vector<MessageSpec> out;
    trace.poll(1, 4, out);
    EXPECT_TRUE(out.empty());
    trace.poll(1, 5, out); // the cycle-5 event (sorted before 10)
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dest, 3);
    trace.poll(2, 7, out);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[1].multicast);
    trace.poll(1, 50, out); // catches up on the cycle-10 event
    EXPECT_EQ(out.size(), 3u);
    EXPECT_EQ(trace.pending(), 0u);
}

TEST(TraceTraffic, FileRoundTrip)
{
    const std::string path = tempPath("roundtrip.trace");
    std::vector<TraceEvent> events;
    events.push_back(unicastEvent(100, 0, 7, 32));
    events.push_back(mcastEvent(200, 3, {1, 8, 15}, 64));
    TraceTraffic::writeFile(path, events);

    TraceTraffic trace = TraceTraffic::fromFile(path, 16);
    EXPECT_EQ(trace.size(), 2u);
    std::vector<MessageSpec> out;
    trace.poll(0, 100, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dest, 7);
    trace.poll(3, 200, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[1].multicast);
    EXPECT_EQ(out[1].dests, DestSet::of(16, {1, 8, 15}));
    std::remove(path.c_str());
}

TEST(TraceTraffic, ParsesCommentsAndBlanks)
{
    const std::string path = tempPath("comments.trace");
    {
        std::ofstream out(path);
        out << "# header comment\n\n"
            << "5 1 U 2 16  # trailing comment\n"
            << "   \n"
            << "9 2 M 8 3,4,5\n";
    }
    TraceTraffic trace = TraceTraffic::fromFile(path, 16);
    EXPECT_EQ(trace.size(), 2u);
    std::remove(path.c_str());
}

TEST(TraceTrafficDeath, MalformedLineIsFatal)
{
    const std::string path = tempPath("bad.trace");
    {
        std::ofstream out(path);
        out << "5 1 X 2 16\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 "unknown event kind");
    {
        std::ofstream out(path);
        out << "5 1 M 8 99\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 "bad destination");
    std::remove(path.c_str());
}

TEST(TraceTrafficDeath, MissingFileIsFatal)
{
    EXPECT_DEATH((void)TraceTraffic::fromFile("/nonexistent.trace", 16),
                 "cannot open");
}

TEST(TraceTrafficDeath, InvalidEventPanics)
{
    TraceTraffic trace(8);
    EXPECT_DEATH(trace.add(unicastEvent(0, 1, 1, 8)), "invalid");
    EXPECT_DEATH(trace.add(unicastEvent(0, 99, 1, 8)), "out of range");
}

TEST(TraceTraffic, ExactNextArrival)
{
    TraceTraffic trace(16);
    trace.add(unicastEvent(100, 0, 7, 32));
    trace.add(unicastEvent(7, 3, 1, 8));
    EXPECT_EQ(trace.nextArrival(0, 0), 100u);
    EXPECT_EQ(trace.nextArrival(3, 0), 7u);
    EXPECT_EQ(trace.nextArrival(1, 0), kNoCycle);
    // An overdue posting is reported as "now", never in the past.
    EXPECT_EQ(trace.nextArrival(3, 20), 20u);
    std::vector<MessageSpec> out;
    trace.poll(3, 20, out);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(trace.nextArrival(3, 20), kNoCycle);
}

TEST(TraceTraffic, V2FileRoundTrip)
{
    const std::string path = tempPath("roundtrip_v2.trace");
    std::vector<TraceEvent> events;
    events.push_back(unicastEvent(100, 0, 7, 32));
    events.back().id = 1;
    events.push_back(mcastEvent(200, 3, {1, 8, 15}, 64));
    events.back().id = 2;
    events.back().deps = {1};
    events.push_back(unicastEvent(0, 8, 0, 16));
    events.back().id = 5;
    events.back().deps = {1, 2};
    TraceTraffic::writeFile(path, events);

    {
        std::ifstream in(path);
        std::string first;
        std::getline(in, first);
        EXPECT_EQ(first.rfind("# mdw-trace/2", 0), 0u)
            << "v2 trace must open with the magic line";
    }

    TraceTraffic trace = TraceTraffic::fromFile(path, 16);
    ASSERT_EQ(trace.size(), 3u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent &want = events[i];
        const TraceEvent &got = trace.events()[i];
        EXPECT_EQ(got.id, want.id) << "event " << i;
        EXPECT_EQ(got.deps, want.deps) << "event " << i;
        EXPECT_EQ(got.when, want.when) << "event " << i;
        EXPECT_EQ(got.src, want.src) << "event " << i;
        EXPECT_EQ(got.spec.multicast, want.spec.multicast);
        EXPECT_EQ(got.spec.payloadFlits, want.spec.payloadFlits);
        if (want.spec.multicast)
            EXPECT_EQ(got.spec.dests, want.spec.dests);
        else
            EXPECT_EQ(got.spec.dest, want.spec.dest);
    }
    std::remove(path.c_str());
}

TEST(TraceTrafficDeath, V2MalformedLinesAreFatalWithLineNumbers)
{
    const std::string path = tempPath("bad_v2.trace");
    {
        std::ofstream out(path);
        out << "# mdw-trace/2\n"
            << "0 5 1 U 2 16\n"; // id 0 is reserved for v1 events
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 ":2: event id must be positive");
    {
        std::ofstream out(path);
        out << "# mdw-trace/2\n"
            << "1 5 1 U 2 16\n"
            << "2 6 2 U 3 16 deps=zig\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 ":3: bad dependency id 'zig'");
    {
        std::ofstream out(path);
        out << "# mdw-trace/2\n"
            << "1 5 1 U 2 16\n"
            << "1 6 2 U 3 16\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 ":3: duplicate event id 1");
    {
        // deps= on a v1 trace (no magic) is a trailing-junk error.
        std::ofstream out(path);
        out << "5 1 U 2 16 deps=1\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 ":1: unexpected trailing token 'deps=1'");
    std::remove(path.c_str());
}

TEST(TraceTrafficDeath, V2UnknownDependencyIsFatal)
{
    const std::string path = tempPath("unknown_dep.trace");
    {
        std::ofstream out(path);
        out << "# mdw-trace/2\n"
            << "1 5 1 U 2 16\n"
            << "2 6 2 U 3 16 deps=1,99\n";
    }
    EXPECT_DEATH((void)TraceTraffic::fromFile(path, 16),
                 ":3: unknown dependency id 99");
    std::remove(path.c_str());
}

TEST(TraceTrafficDeath, DependencyCycleIsFatal)
{
    TraceTraffic trace(8);
    TraceEvent a = unicastEvent(0, 0, 1, 8);
    a.id = 1;
    a.deps = {3};
    TraceEvent b = unicastEvent(0, 1, 2, 8);
    b.id = 2;
    b.deps = {1};
    TraceEvent c = unicastEvent(0, 2, 3, 8);
    c.id = 3;
    c.deps = {2};
    trace.add(a);
    trace.add(b);
    trace.add(c);
    EXPECT_DEATH(trace.resolveDependencies(), "dependency cycle");
}

// Manual-poll unit for the dependency gate and the release rule: a
// dependent event stays invisible until its dependency *completes*,
// and then releases no earlier than completion + 1.
TEST(TraceTraffic, DependencyHoldsEventUntilCompletion)
{
    TraceTraffic trace(8);
    TraceEvent first = unicastEvent(0, 0, 1, 8);
    first.id = 1;
    TraceEvent second = unicastEvent(0, 2, 3, 8);
    second.id = 2;
    second.deps = {1};
    trace.add(first);
    trace.add(second);

    std::vector<MessageSpec> out;
    trace.poll(2, 0, out);
    EXPECT_TRUE(out.empty()) << "dependent event released too early";
    EXPECT_EQ(trace.nextArrival(2, 0), kNoCycle);

    trace.poll(0, 0, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].token, 1u);

    // Play the NIC: post it as message 77, then complete at cycle 10.
    trace.onPosted(0, out[0].token, 77, 0);
    trace.onCompleted(77, 0, 10);

    // The release rule: visible at 11, not 10.
    EXPECT_EQ(trace.nextArrival(2, 10), 11u);
    out.clear();
    trace.poll(2, 10, out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(trace.nextArrival(2, 11), 11u);
    trace.poll(2, 11, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].token, 2u);
    EXPECT_EQ(trace.pending(), 0u);
    EXPECT_TRUE(trace.exhausted());
}

TEST(TraceTraffic, DrivesANetworkEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    Network net(config);

    TraceTraffic trace(net.numHosts());
    trace.add(unicastEvent(0, 0, 9, 32));
    trace.add(mcastEvent(50, 4, {1, 2, 12}, 48));
    trace.add(unicastEvent(100, 9, 0, 16));
    net.attachWorkload(&trace);

    net.armWatchdog(10000);
    // Idle alone is not enough: the network is trivially idle before
    // the first trace event fires.
    ASSERT_TRUE(net.sim().runUntil(
        [&net, &trace] {
            return trace.pending() == 0 && net.idle();
        },
        100000));
    EXPECT_EQ(trace.pending(), 0u);
    EXPECT_EQ(net.tracker().totalCompleted(), 3u);
    EXPECT_EQ(net.tracker().totalDeliveries(), 5u);
}

} // namespace
} // namespace mdw
