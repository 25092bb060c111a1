/**
 * @file
 * E7 — Varying message length at fixed load and degree.
 *
 * Expected shape (paper): hardware worms amortize the fixed header
 * and start-up cost over longer messages; the software scheme pays
 * its per-phase overheads regardless of length, so its relative
 * penalty is worst for short messages and its absolute latency grows
 * fastest (each phase re-serializes the payload).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E7");

    banner("E7", "multicast latency vs message length",
           "64 nodes, load 0.05, degree 8");
    std::printf("%8s | %9s %9s %9s\n", "payload", "cb-hw", "ib-hw",
                "sw-umin");
    std::fflush(stdout);

    const std::vector<int> lengths =
        quick ? std::vector<int>{16, 64, 256}
              : std::vector<int>{8, 16, 32, 64, 128, 256};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int length : lengths) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            traffic.load = 0.05;
            traffic.payloadFlits = length;
            char label[48];
            std::snprintf(label, sizeof(label), "%s payload=%d",
                          toString(scheme), length);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (int length : lengths) {
        std::printf("%8d", length);
        for (Scheme scheme : kAllSchemes) {
            (void)scheme;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf(" %s%s",
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        satMark(r));
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
