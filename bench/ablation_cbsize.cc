/**
 * @file
 * A2 — Ablation: central-buffer capacity. With whole-packet
 * reservations, a small central queue throttles how many worms can
 * be resident per switch; latency should fall and saturation recede
 * as chunks are added, with diminishing returns once contention (not
 * buffering) dominates.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A2");

    banner("A2", "central-buffer size ablation (CB-HW)",
           "64 nodes, degree 8, 64-flit payload, load 0.10");
    std::printf("%8s %9s | %9s %9s %9s %10s\n", "chunks", "flits",
                "mc-avg", "mc-last", "deliv", "stall-cyc");
    std::fflush(stdout);

    // Lower bound: a 73-flit worm needs 10 chunks, x2 for the
    // up-phase headroom, plus 8 escape chunks = 28.
    const std::vector<int> sizes =
        quick ? std::vector<int>{28, 64, 192}
              : std::vector<int>{28, 32, 48, 64, 96, 128, 192, 256};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    int chunkFlits = 0;
    for (int chunks : sizes) {
        NetworkConfig net = networkFor(Scheme::CbHw);
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = benchExperiment(quick);
        applyOverrides(cli, net, traffic, params);
        net.cb.cqChunks = chunks;
        // The workload's 64-flit payload is the largest packet here.
        net.maxPayloadFlits = traffic.payloadFlits;
        traffic.load = 0.10;
        chunkFlits = net.cb.chunkFlits;
        char label[48];
        std::snprintf(label, sizeof(label), "chunks=%d", chunks);
        runner.add(label, net, traffic, params);
    }
    runner.run();

    std::size_t idx = 0;
    for (int chunks : sizes) {
        const ExperimentResult &r = runner.results()[idx++];
        std::printf("%8d %9d | %s %s %9.3f %10llu%s\n", chunks,
                    chunks * chunkFlits,
                    cell(r.mcastAvgAvg(), r.mcastCount()).c_str(),
                    cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                    r.deliveredLoad(),
                    static_cast<unsigned long long>(
                        r.reservationStallCycles()),
                    satMark(r));
    }
    maybeReport(sc, runner);
    return 0;
}
