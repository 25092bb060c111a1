/**
 * @file
 * Golden metrics snapshots: the full toJson() of small fixed runs,
 * compared byte for byte against files under tests/data/. Any change
 * to a metric's name, value, kind, formatting or ordering shows up
 * here as a diff against the committed rendering.
 *
 * To re-record after an intended change, run the suite with
 * MDW_GOLDEN_WRITE=1; each test then rewrites its file instead of
 * comparing, and the diff goes through review like any other.
 */

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "scoped_env.hh"
#include "sim/config.hh"

namespace mdw {
namespace {

/** Metrics JSON of one 16-host run configured by @p tokens. */
std::string
goldenRun(const std::string &tokens)
{
    // The lane count is part of the metric set (per-lane counters);
    // the scheduler overrides are not, so they stay in effect.
    ScopedEnv lanes("MDW_LANES", nullptr);
    Config config;
    config.set("n", "2");
    config.set("warmup", "500");
    config.set("measure", "2000");
    config.set("drainLimit", "60000");
    config.set("watchdog", "40000");
    config.set("workload.load", "0.05");
    config.set("workload.degree", "4");
    config.set("workload.payload", "32");
    std::istringstream stream(tokens);
    std::string token;
    while (stream >> token)
        config.parseToken(token);
    NetworkConfig network = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(config, network, traffic, params);
    return Experiment(network, traffic, params).run().metrics.toJson();
}

void
expectGolden(const std::string &file, const std::string &json)
{
    const std::string path = std::string(MDW_TEST_DATA_DIR) + "/" + file;
    if (std::getenv("MDW_GOLDEN_WRITE") != nullptr) {
        std::ofstream(path) << json << "\n";
        GTEST_SKIP() << "rewrote " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_TRUE(want.str() == json + "\n")
        << file << " differs from this build's snapshot";
}

TEST(MetricsGolden, CentralBufferHardware16)
{
    expectGolden("metrics_cbhw16.json", goldenRun("arch=cb scheme=hw"));
}

TEST(MetricsGolden, InputBufferHardware16)
{
    expectGolden("metrics_ibhw16.json", goldenRun("arch=ib scheme=hw"));
}

TEST(MetricsGolden, CentralBufferTwoLanesWithLinkRetry16)
{
    // Per-lane scopes ("switch.3.port.1.lane.0.tx_flits") and the
    // link layers' "link.<switch>.p<port>" scopes.
    expectGolden("metrics_cbhw16_lanes2_arq.json",
                 goldenRun("arch=cb scheme=hw switch.lanes=2 fault.ber=1e-3 "
                           "fault.residual=0.05 "
                           "nic.retransmitTimeout=3000"));
}

} // namespace
} // namespace mdw
