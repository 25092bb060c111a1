/**
 * @file
 * Unit tests for the key=value configuration store, plus the
 * warn-once clamping of out-of-range preset values (switch.lanes) and
 * the rejection of unknown keys.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/config.hh"

namespace mdw {
namespace {

TEST(Config, TypedGettersWithDefaults)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 0.5), 0.5);
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_EQ(c.getString("missing", "x"), "x");
}

TEST(Config, ParsesValues)
{
    Config c;
    c.parseToken("count=42");
    c.parseToken("rate=0.25");
    c.parseToken("name=hello");
    c.parseToken("flag=true");
    EXPECT_EQ(c.getInt("count", 0), 42);
    EXPECT_DOUBLE_EQ(c.getDouble("rate", 0.0), 0.25);
    EXPECT_EQ(c.getString("name", ""), "hello");
    EXPECT_TRUE(c.getBool("flag", false));
}

TEST(Config, HexIntegers)
{
    Config c;
    c.set("addr", "0x10");
    EXPECT_EQ(c.getInt("addr", 0), 16);
}

TEST(Config, BoolSpellings)
{
    Config c;
    c.set("a", "1");
    c.set("b", "yes");
    c.set("c", "off");
    c.set("d", "false");
    EXPECT_TRUE(c.getBool("a", false));
    EXPECT_TRUE(c.getBool("b", false));
    EXPECT_FALSE(c.getBool("c", true));
    EXPECT_FALSE(c.getBool("d", true));
}

TEST(Config, OverwriteTakesLastValue)
{
    Config c;
    c.set("k", "1");
    c.set("k", "2");
    EXPECT_EQ(c.getInt("k", 0), 2);
}

TEST(Config, ParseArgsSkipsArgv0)
{
    const char *argv[] = {"prog", "a=1", "b=2"};
    Config c;
    const int n = c.parseArgs(3, const_cast<char **>(argv));
    EXPECT_EQ(n, 2);
    EXPECT_EQ(c.getInt("a", 0), 1);
    EXPECT_EQ(c.getInt("b", 0), 2);
}

TEST(Config, UnreadKeysTracksTypos)
{
    Config c;
    c.set("used", "1");
    c.set("typo", "1");
    (void)c.getInt("used", 0);
    const auto unread = c.unreadKeys();
    ASSERT_EQ(unread.size(), 1u);
    EXPECT_EQ(unread[0], "typo");
}

TEST(Config, KeysSorted)
{
    Config c;
    c.set("b", "1");
    c.set("a", "1");
    const auto keys = c.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[1], "b");
}

TEST(Config, WarnsOnStderrForUnreadParsedKeysOncePerProcess)
{
    testing::internal::CaptureStderr();
    {
        Config c;
        c.parseToken("definitely.a.typo=1");
        c.set("programmatic", "2"); // set() never arms the warning
    }
    {
        Config c; // same typo again: already warned, stays silent
        c.parseToken("definitely.a.typo=1");
    }
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_NE(err.find("definitely.a.typo"), std::string::npos) << err;
    EXPECT_NE(err.find("never read"), std::string::npos) << err;
    EXPECT_EQ(err.find("programmatic"), std::string::npos) << err;
    EXPECT_EQ(err.find("definitely.a.typo"),
              err.rfind("definitely.a.typo"))
        << "warned more than once: " << err;
}

TEST(Config, ReadKeysDoNotWarn)
{
    testing::internal::CaptureStderr();
    {
        Config c;
        c.parseToken("quick=1");
        EXPECT_TRUE(c.getBool("quick", false));
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(Config, OutOfRangeLanesClampWithOneWarning)
{
    // An out-of-range switch.lanes= rides the same one-shot warning
    // path as deprecated keys: clamp, warn on first sight, then stay
    // silent for the rest of the process.
    testing::internal::CaptureStderr();
    for (int i = 0; i < 2; ++i) {
        Config cli;
        cli.parseToken("switch.lanes=99");
        NetworkConfig net = defaultNetwork();
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = defaultExperiment();
        applyOverrides(cli, net, traffic, params);
        EXPECT_EQ(net.sw.lanes, kMaxLanes);
    }
    {
        Config cli;
        cli.parseToken("switch.lanes=0");
        NetworkConfig net = defaultNetwork();
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = defaultExperiment();
        applyOverrides(cli, net, traffic, params);
        EXPECT_EQ(net.sw.lanes, 1); // clamps up, too
    }
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_NE(err.find("switch.lanes"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    EXPECT_EQ(err.find("switch.lanes"), err.rfind("switch.lanes"))
        << "warned more than once: " << err;
}

TEST(Config, LaneKnobsParse)
{
    Config cli;
    cli.parseToken("switch.lanes=4");
    cli.parseToken("switch.laneAlloc=adaptive");
    cli.parseToken("workload.mcastClass=1");
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(cli, net, traffic, params);
    EXPECT_EQ(net.sw.lanes, 4);
    EXPECT_EQ(net.sw.laneAlloc, LaneAlloc::Adaptive);
    EXPECT_EQ(traffic.mcastClass, 1);
}

TEST(ConfigDeath, BadLaneAllocIsFatal)
{
    Config cli;
    cli.parseToken("switch.laneAlloc=psychic");
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    EXPECT_DEATH(applyOverrides(cli, net, traffic, params),
                 "unknown lane allocation");
}

TEST(ConfigDeath, BareWorkloadKeyIsFatal)
{
    // Workload settings have one spelling, workload.*; the bare
    // pre-redesign keys are unknown.
    Config cli;
    cli.parseToken("load=0.1");
    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    EXPECT_DEATH(applyOverrides(cli, net, traffic, params),
                 "unknown config keys: load");
}

TEST(ConfigDeath, MalformedTokenIsFatal)
{
    Config c;
    EXPECT_DEATH(c.parseToken("no-equals"), "not key=value");
    EXPECT_DEATH(c.parseToken("=value"), "not key=value");
}

TEST(ConfigDeath, MalformedNumberIsFatal)
{
    Config c;
    c.set("n", "12abc");
    EXPECT_DEATH((void)c.getInt("n", 0), "not an integer");
    c.set("d", "zz");
    EXPECT_DEATH((void)c.getDouble("d", 0), "not a number");
    c.set("b", "maybe");
    EXPECT_DEATH((void)c.getBool("b", false), "not a boolean");
}

} // namespace
} // namespace mdw
