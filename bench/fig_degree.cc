/**
 * @file
 * E6 — Varying degree of multicast at a fixed, comfortable load.
 *
 * Expected shape (paper): SW-UMin latency grows with
 * ceil(log2(d + 1)) phases, each paying software overheads, while
 * both hardware schemes stay nearly flat in d (a single worm covers
 * any destination set in one phase).
 */

#include "bench_common.hh"
#include "host/sw_mcast.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E6");

    // Delivered load (payload flits/node/cycle at the receivers) is
    // held constant across degrees — offered load is 0.32/d — so the
    // sweep isolates the per-message cost of covering d destinations
    // from plain bandwidth saturation.
    banner("E6", "multicast latency vs degree",
           "64 nodes, delivered load 0.32, 64-flit payload");
    std::printf("%8s %7s | %9s %9s %9s\n", "degree", "phases",
                "cb-hw", "ib-hw", "sw-umin");
    std::fflush(stdout);

    const std::vector<int> degrees =
        quick ? std::vector<int>{4, 16, 63}
              : std::vector<int>{2, 4, 8, 16, 32, 48, 63};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int degree : degrees) {
        for (Scheme scheme : kAllSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            traffic.load = 0.32 / degree;
            traffic.mcastDegree = degree;
            char label[48];
            std::snprintf(label, sizeof(label), "%s degree=%d",
                          toString(scheme), degree);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (int degree : degrees) {
        const int phases =
            binomialPhases(static_cast<std::size_t>(degree));
        std::printf("%8d %7d", degree, phases);
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
