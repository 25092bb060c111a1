/**
 * @file
 * A9 — Ablation: bidirectional MIN (fat-tree) vs unidirectional MIN
 * at equal host count and switch arity (CB-HW). The comparison cuts
 * both ways: the uni-MIN crosses exactly n stages (shorter than the
 * bidi-MIN's up-to-2n-1-switch LCA paths, so its zero-load latency
 * is lower), but it offers a single path per (source, destination)
 * and a physically split injection/ejection attachment, while the
 * bidi-MIN shortcuts nearby traffic at low stages and adaptively
 * spreads the up phase over k parallel paths.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A9");

    banner("A9", "bidirectional vs unidirectional MIN (CB-HW)",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "", "fat-tree",
                "", "", "uni-min", "", "");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "load", "mc-avg",
                "mc-last", "deliv", "mc-avg", "mc-last", "deliv");
    std::fflush(stdout);

    const TopologyKind topos[] = {TopologyKind::FatTree,
                                  TopologyKind::UniMin};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (TopologyKind topo : topos) {
            NetworkConfig net = networkFor(Scheme::CbHw);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.topo = topo;
            traffic.load = load;
            char label[48];
            std::snprintf(label, sizeof(label), "%s load=%.3f",
                          toString(topo), load);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double load : loadGrid(quick)) {
        std::printf("%8.3f", load);
        for (TopologyKind topo : topos) {
            (void)topo;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" | %s %s %9.3f%s",
                        cell(r.mcastAvgAvg(), r.mcastCount()).c_str(),
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        r.deliveredLoad(), satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
