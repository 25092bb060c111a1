/**
 * @file
 * E13 — Closed-loop collective completion time vs system size for
 * each multicast implementation. Unlike the open-loop figures, every
 * round is gated on real completions: barrier/allreduce gather
 * unicasts into the root and the release multicast fires only after
 * the last arrival completes, so the reported cycles are end-to-end
 * collective latency, not steady-state throughput.
 *
 * Expected shape (paper): the release multicast dominates, so the
 * scheme ordering of E10 carries over and widens with system size —
 * CB-HW flattest, SW-UMin growing with the unicast fan-out it must
 * serialize at the root.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E13");

    // Fat-tree levels at k=4: n -> 4^n hosts (16 / 64 / 256).
    const std::vector<int> levels =
        quick ? std::vector<int>{2, 3} : std::vector<int>{2, 3, 4};
    const CollectiveOp ops[] = {CollectiveOp::Barrier,
                                CollectiveOp::Allreduce};

    banner("E13", "collective completion time vs system size",
           "closed-loop iterated barrier/allreduce: gather unicasts + "
           "release multicast, each round gated on completions");
    std::printf("%10s %6s | %9s %9s %9s\n", "op", "hosts", "cb-hw",
                "ib-hw", "sw-umin");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (const CollectiveOp op : ops) {
        for (const int n : levels) {
            for (const Scheme scheme : kAllSchemes) {
                NetworkConfig net = networkFor(scheme);
                WorkloadParams traffic = defaultTraffic();
                ExperimentParams params = benchExperiment(quick);
                // Closed-loop: no warmup/measure split; the run ends
                // when the workload exhausts, bounded by drainLimit
                // (the 256-host allreduce serializes ~255 gather
                // unicasts per round at the root).
                params.drainLimit = quick ? 200000 : 2000000;
                net.fatTreeN = n;
                traffic.kind = WorkloadKind::Collective;
                traffic.collective = op;
                traffic.rounds = quick ? 4 : 8;
                applyOverrides(cli, net, traffic, params);
                char label[64];
                std::snprintf(label, sizeof(label), "%s %s n=%d",
                              toString(scheme), toString(op), n);
                runner.add(label, net, traffic, params);
            }
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (const CollectiveOp op : ops) {
        for (const int n : levels) {
            int hosts = 1;
            for (int i = 0; i < n; ++i)
                hosts *= 4;
            std::printf("%10s %6d |", toString(op), hosts);
            for (const Scheme scheme : kAllSchemes) {
                (void)scheme;
                const ExperimentResult &r = runner.results()[idx++];
                std::printf(
                    " %9.1f%s",
                    r.metrics.sampler("workload.round_cycles").mean(),
                    satMark(r));
            }
            std::printf("\n");
        }
    }
    maybeReport(sc, runner);
    return 0;
}
