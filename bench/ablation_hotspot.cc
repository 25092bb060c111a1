/**
 * @file
 * A7 — Hot-spot traffic (the paper's stated future work): a unicast
 * background in which a growing fraction of messages target node 0.
 * The dynamically shared central buffer absorbs the tree of backlog
 * converging on the hot ejection link far better than the statically
 * partitioned input buffers, whose FIFOs head-of-line-block cold
 * traffic behind hot packets.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A7");

    banner("A7", "hot-spot unicast traffic",
           "64 nodes, load 0.10, 64-flit payload, hot node 0");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "", "cb", "", "",
                "ib", "", "");
    std::printf("%8s | %9s %9s %9s | %9s %9s %9s\n", "hot-frac",
                "uni-avg", "uni-p95", "deliv", "uni-avg", "uni-p95",
                "deliv");
    std::fflush(stdout);

    // Hot-node ejection load is load*(1 + hotFraction*(N-2)), so
    // fractions are kept below the ejection-link saturation point.
    const SwitchArch archs[] = {SwitchArch::CentralBuffer,
                                SwitchArch::InputBuffer};
    const std::vector<double> fractions =
        quick ? std::vector<double>{0.0, 0.08}
              : std::vector<double>{0.0, 0.02, 0.04, 0.08, 0.12};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double fraction : fractions) {
        for (SwitchArch arch : archs) {
            NetworkConfig net = defaultNetwork();
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.arch = arch;
            traffic.pattern = TrafficPattern::HotSpot;
            traffic.load = 0.10;
            traffic.hotFraction = fraction;
            char label[48];
            std::snprintf(label, sizeof(label), "%s hot=%.2f",
                          toString(arch), fraction);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double fraction : fractions) {
        std::printf("%8.2f", fraction);
        for (SwitchArch arch : archs) {
            (void)arch;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" | %s %s %9.3f",
                        cell(r.unicastAvg(), r.unicastCount()).c_str(),
                        cell(r.unicastP95(), r.unicastCount()).c_str(),
                        r.deliveredLoad());
            std::printf("%s", satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
