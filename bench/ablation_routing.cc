/**
 * @file
 * A1 — Ablation: LCA routing variant. ReplicateAfterLca sends the
 * whole worm to the least-common-ancestor stage before any
 * branching; ReplicateOnUpPath spawns down-branches eagerly while
 * climbing. Eager branching can shave hops for some destinations but
 * occupies more ports per switch on the up path.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A1");

    banner("A1", "routing variant ablation (CB-HW)",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%8s | %9s %9s | %9s %9s\n", "", "after-lca", "",
                "on-up-path", "");
    std::printf("%8s | %9s %9s | %9s %9s\n", "load", "mc-avg",
                "mc-last", "mc-avg", "mc-last");
    std::fflush(stdout);

    const RoutingVariant variants[] = {
        RoutingVariant::ReplicateAfterLca,
        RoutingVariant::ReplicateOnUpPath};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (RoutingVariant variant : variants) {
            NetworkConfig net = networkFor(Scheme::CbHw);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.sw.variant = variant;
            traffic.load = load;
            char label[48];
            std::snprintf(label, sizeof(label), "%s load=%.3f",
                          toString(variant), load);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double load : loadGrid(quick)) {
        std::printf("%8.3f", load);
        for (RoutingVariant variant : variants) {
            (void)variant;
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
