/**
 * @file
 * E4 + E5 — Bimodal traffic: a unicast background with 10% multicast
 * messages (degree 8). Reports how each multicast implementation
 * affects the *background unicast* latency (E4) and the multicast
 * latency itself (E5) as total load rises.
 *
 * Expected shape (paper's headline bimodal claim): with SW-UMin the
 * software multicasts flood the network with unicast carriers and
 * degrade background unicast latency far more than CB-HW hardware
 * worms do; CB-HW disturbs unicast traffic the least.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E4+E5");

    banner("E4+E5", "bimodal traffic: unicast + multicast latency",
           "64 nodes, 10% multicast of degree 8, 64-flit payload");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s\n", "", "cb-hw",
                "", "ib-hw", "", "sw-umin", "");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s\n", "load", "uni",
                "mc-last", "uni", "mc-last", "uni", "mc-last");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            traffic.pattern = TrafficPattern::Bimodal;
            traffic.mcastFraction = 0.1;
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
        std::printf("%8.3f", load);
        for (Scheme scheme : kAllSchemes) {
            (void)scheme;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" | %s %s%s",
                        cell(r.unicastAvg(), r.unicastCount()).c_str(),
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
