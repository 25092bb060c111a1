/**
 * @file
 * E3 — Delivered throughput vs offered load under multiple multicast
 * traffic. Delivered load counts every copy that lands at a
 * destination (payload flits / node / cycle), so the ideal curve is
 * offered x degree until a scheme saturates.
 *
 * Expected shape (paper): CB-HW sustains the highest delivered load;
 * SW-UMin saturates first (each multicast injects ~d unicasts).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E3");

    banner("E3", "delivered throughput vs offered load",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%8s %9s | %9s %9s %9s\n", "load", "ideal", "cb-hw",
                "ib-hw", "sw-umin");
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
        std::printf("%8.3f %9.3f", load, load * 8.0);
        for (Scheme scheme : kAllSchemes) {
            (void)scheme;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" %9.3f%s", r.deliveredLoad(), satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
