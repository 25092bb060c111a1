/**
 * @file
 * E15 — Virtual-lane ablation under bimodal load: a bulk unicast
 * background (class 0) with a 10% multicast foreground (degree 8)
 * tagged latency-sensitive (class 1), swept over lanes x load x
 * scheme. With lanes >= 2 the static allocator gives the multicast
 * foreground its own lane partition, so its tail latency (p99/p999)
 * should drop while the bulk background keeps its throughput — the
 * class-isolation claim of the lane design.
 *
 * Usage: fig_lanes [quick=1] [check=1] [report=1] [laneAlloc=...]
 *
 * With check=1 the binary exits nonzero unless, for every scheme at
 * the highest load, some multi-lane configuration improves the
 * multicast p99 over lanes=1 while keeping delivered bulk throughput
 * within 5%.
 */

#include <cstdlib>

#include "bench_common.hh"

namespace {

/** Loads high enough that the shared single lane actually congests. */
std::vector<double>
lanesLoadGrid(bool quick)
{
    if (quick)
        return {0.08, 0.20};
    return {0.05, 0.10, 0.20, 0.30};
}

const int kLaneGrid[] = {1, 2, 4};

} // namespace

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const bool check = cli.getBool("check", false);
    const SweepCli sc = parseSweepCli(cli, "E15");

    banner("E15", "virtual lanes: multicast tail isolation",
           "64 nodes, bimodal 10% mcast deg 8 (class 1), 64-flit");
    std::printf("%8s %8s | %9s %9s %9s | %9s\n", "scheme", "load",
                "lanes=1", "lanes=2", "lanes=4", "metric");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    const auto loads = lanesLoadGrid(quick);
    for (Scheme scheme : kAllSchemes) {
        for (double load : loads) {
            for (int lanes : kLaneGrid) {
                NetworkConfig net = networkFor(scheme);
                WorkloadParams traffic = defaultTraffic();
                ExperimentParams params = benchExperiment(quick);
                applyOverrides(cli, net, traffic, params);
                net.sw.lanes = lanes;
                traffic.pattern = TrafficPattern::Bimodal;
                traffic.mcastFraction = 0.1;
                traffic.mcastClass = 1;
                traffic.load = load;
                char label[64];
                std::snprintf(label, sizeof(label),
                              "%s load=%.3f lanes=%d",
                              toString(scheme), load, lanes);
                runner.add(label, net, traffic, params);
            }
        }
    }
    runner.run();

    bool failed = false;
    std::size_t idx = 0;
    for (Scheme scheme : kAllSchemes) {
        for (double load : loads) {
            const ExperimentResult *byLanes[3];
            for (std::size_t l = 0; l < 3; ++l)
                byLanes[l] = &runner.results()[idx++];

            std::printf("%8s %8.3f", toString(scheme), load);
            for (const ExperimentResult *r : byLanes)
                std::printf(" | %s%s",
                            cell(r->mcastLastP99(), r->mcastCount())
                                .c_str(),
                            satMark(*r));
            std::printf(" | mc-p99\n");
            std::printf("%8s %8s", "", "");
            for (const ExperimentResult *r : byLanes)
                std::printf(" | %9.3f", r->deliveredLoad());
            std::printf(" | delivered\n");

            // Gate at the highest load only: below congestion the
            // lanes have nothing to isolate and p99s tie.
            if (!check || load != loads.back())
                continue;
            const ExperimentResult &base = *byLanes[0];
            bool improved = false;
            for (std::size_t l = 1; l < 3; ++l) {
                const ExperimentResult &r = *byLanes[l];
                const bool tail =
                    r.mcastLastP99() <= base.mcastLastP99();
                const bool throughput =
                    r.deliveredLoad() >= 0.95 * base.deliveredLoad();
                if (tail && throughput)
                    improved = true;
            }
            if (!improved) {
                std::fprintf(stderr,
                             "# CHECK FAILED: %s load=%.3f: no "
                             "multi-lane run beats lanes=1 p99 "
                             "within the throughput budget\n",
                             toString(scheme), load);
                failed = true;
            }
        }
    }
    if (check && !failed)
        std::printf("# check: multi-lane mcast p99 <= lanes=1 with "
                    "delivered load within 5%% at load=%.3f\n",
                    loads.back());
    maybeReport(sc, runner);
    return check && failed ? 1 : 0;
}
