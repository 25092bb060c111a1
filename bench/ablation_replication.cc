/**
 * @file
 * A8 — Ablation: asynchronous vs synchronous replication on the
 * input-buffer switch (paper Section 3). Synchronous replication
 * forwards a worm's flits in lock-step across all branches, so the
 * slowest branch paces the whole worm and every branch's output port
 * sits idle whenever any one blocks; asynchronous replication lets
 * each branch run free. The paper argues asynchronous is both
 * cheaper (no feedback network) and faster — this ablation shows the
 * performance half of that claim.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A8");

    banner("A8", "replication-mechanism ablation (IB-HW)",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "", "async", "",
                "", "sync", "", "");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "load", "mc-avg",
                "mc-last", "deliv", "mc-avg", "mc-last", "deliv");
    std::fflush(stdout);

    const ReplicationMode modes[] = {ReplicationMode::Asynchronous,
                                     ReplicationMode::Synchronous};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (ReplicationMode mode : modes) {
            NetworkConfig net = networkFor(Scheme::IbHw);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.sw.replication = mode;
            traffic.load = load;
            char label[48];
            std::snprintf(label, sizeof(label), "%s load=%.3f",
                          toString(mode), load);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double load : loadGrid(quick)) {
        std::printf("%8.3f", load);
        for (ReplicationMode mode : modes) {
            (void)mode;
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
