/**
 * @file
 * A3 — Ablation: bit-string vs multiport header encoding (CB-HW).
 * Bit-string covers any destination set in one worm but its header
 * grows with system size; multiport headers are tiny and
 * size-independent but arbitrary sets may split into several product
 * worms (phases). The crossover depends on degree: sparse random
 * sets fragment badly under multiport.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A3");

    banner("A3", "header encoding ablation (CB-HW)",
           "64 nodes, load 0.05, 64-flit payload");
    std::printf("%8s | %9s %9s | %9s %9s\n", "", "bit-string", "",
                "multiport", "");
    std::printf("%8s | %9s %9s | %9s %9s\n", "degree", "mc-avg",
                "mc-last", "mc-avg", "mc-last");
    std::fflush(stdout);

    const McastEncoding encodings[] = {McastEncoding::BitString,
                                       McastEncoding::Multiport};
    const std::vector<int> degrees =
        quick ? std::vector<int>{4, 16, 63}
              : std::vector<int>{2, 4, 8, 16, 32, 63};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int degree : degrees) {
        for (McastEncoding encoding : encodings) {
            NetworkConfig net = networkFor(Scheme::CbHw);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.nic.encoding = encoding;
            traffic.load = 0.05;
            traffic.mcastDegree = degree;
            char label[48];
            std::snprintf(label, sizeof(label), "%s degree=%d",
                          toString(encoding), degree);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (int degree : degrees) {
        std::printf("%8d", degree);
        for (McastEncoding encoding : encodings) {
            (void)encoding;
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
