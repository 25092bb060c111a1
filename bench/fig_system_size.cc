/**
 * @file
 * E8 — System size scaling: 16, 64, and 256 nodes (4-ary n-trees of
 * 2, 3, and 4 stages). The bit-string header grows with N
 * (1 + ceil(N/8) flits), and paths get one stage longer, so hardware
 * multicast latency creeps up with N while the software scheme also
 * pays deeper binomial trees (degree fixed at 8).
 *
 * Expected shape (paper): all schemes slow down with N; the hardware
 * schemes' gap over software persists at every size.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E8");

    banner("E8", "multicast latency vs system size",
           "4-ary n-tree, load 0.05, degree 8, 64-flit payload");
    std::printf("%8s %7s %8s | %9s %9s %9s\n", "nodes", "stages",
                "hdr", "cb-hw", "ib-hw", "sw-umin");
    std::fflush(stdout);

    const std::vector<int> stages =
        quick ? std::vector<int>{2, 3} : std::vector<int>{2, 3, 4};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int n : stages) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.fatTreeN = n;
            traffic.load = 0.05;
            char label[48];
            std::snprintf(label, sizeof(label), "%s stages=%d",
                          toString(scheme), n);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (int n : stages) {
        std::size_t hosts = 1;
        for (int i = 0; i < n; ++i)
            hosts *= 4;
        const EncodingParams enc;
        std::printf("%8zu %7d %8d", hosts, n,
                    bitStringHeaderFlits(hosts, enc));
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
