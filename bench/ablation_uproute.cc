/**
 * @file
 * A4 — Ablation: adaptive vs deterministic up-port selection. The
 * bidirectional MIN offers k equivalent up ports below the LCA
 * stage; adaptive selection (least-backlogged / first-free) balances
 * transient hot spots that a source-hashed deterministic choice
 * cannot, which shows up as later saturation under load.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A4");

    banner("A4", "up-port selection ablation (CB-HW)",
           "64 nodes, degree 8, 64-flit payload");
    std::printf("%8s | %9s %9s | %9s %9s\n", "", "adaptive", "",
                "determin.", "");
    std::printf("%8s | %9s %9s | %9s %9s\n", "load", "mc-last",
                "deliv", "mc-last", "deliv");
    std::fflush(stdout);

    const UpPortPolicy policies[] = {UpPortPolicy::Adaptive,
                                     UpPortPolicy::Deterministic};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double load : loadGrid(quick)) {
        for (UpPortPolicy policy : policies) {
            NetworkConfig net = networkFor(Scheme::CbHw);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.sw.upPolicy = policy;
            traffic.load = load;
            char label[48];
            std::snprintf(label, sizeof(label), "%s load=%.3f",
                          toString(policy), load);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double load : loadGrid(quick)) {
        std::printf("%8.3f", load);
        for (UpPortPolicy policy : policies) {
            (void)policy;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" | %s %9.3f%s",
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        r.deliveredLoad(), satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
