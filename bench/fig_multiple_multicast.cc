/**
 * @file
 * E1 + E2 — Multiple multicast traffic: average-copy and last-copy
 * multicast latency vs offered load for the three schemes (CB-HW,
 * IB-HW, SW-UMin) on the 64-node bidirectional MIN.
 *
 * Expected shape (paper): CB-HW lowest latency and latest
 * saturation; IB-HW in between (HOL blocking); SW-UMin highest by a
 * large factor (multi-phase + per-phase software overheads).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E1+E2");

    banner("E1+E2", "multiple multicast latency vs offered load",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%-8s %8s | %9s %9s | %9s %9s | %9s %9s\n", "", "",
                "cb-hw", "", "ib-hw", "", "sw-umin", "");
    std::printf("%-8s %8s | %9s %9s | %9s %9s | %9s %9s\n", "metric",
                "load", "avg", "last", "avg", "last", "avg", "last");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            traffic.load = load;
            char label[48];
            std::snprintf(label, sizeof(label), "%s load=%.3f",
                          toString(scheme), load);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double load : loadGrid(quick)) {
        std::printf("%-8s %8.3f", "mcast", load);
        for (Scheme scheme : kAllSchemes) {
            (void)scheme;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" | %s %s%s",
                        cell(r.mcastAvgAvg(), r.mcastCount()).c_str(),
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
