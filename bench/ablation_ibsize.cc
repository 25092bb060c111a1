/**
 * @file
 * A10 — Ablation: input-buffer depth of the IB switch. The paper's
 * deadlock rule fixes the *minimum* (one whole packet per input);
 * this sweep asks whether statically adding more per-input FIFO
 * space rescues the architecture. It does not — it backfires:
 * deeper FIFOs release upstream links earlier and pull MORE packets
 * into head-of-line-constrained positions behind a blocked worm, so
 * latency and delivered throughput get worse as the buffers grow.
 * Only restructuring the storage as a dynamically shared,
 * per-output-chained queue (the central buffer, cf. Tamir/Frazier)
 * removes the HOL constraint — the paper's core architectural
 * argument, stated even more strongly by this data.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "A10");

    banner("A10", "input-buffer depth ablation (IB-HW)",
           "64 nodes, degree 8, 64-flit payload, load 0.05");
    std::printf("%8s %9s | %9s %9s %9s\n", "flits", "packets",
                "mc-avg", "mc-last", "deliv");
    std::fflush(stdout);

    // Largest packet is 73 flits; sweep 1x to 8x of it.
    const std::vector<int> sizes =
        quick ? std::vector<int>{73, 292}
              : std::vector<int>{73, 146, 292, 438, 584};
    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int flits : sizes) {
        NetworkConfig net = networkFor(Scheme::IbHw);
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = benchExperiment(quick);
        applyOverrides(cli, net, traffic, params);
        net.ib.bufferFlits = flits;
        net.maxPayloadFlits = traffic.payloadFlits;
        traffic.load = 0.05;
        char label[48];
        std::snprintf(label, sizeof(label), "ib.buffer=%d", flits);
        runner.add(label, net, traffic, params);
    }
    {
        // Reference: the central-buffer switch at the same load.
        NetworkConfig net = networkFor(Scheme::CbHw);
        WorkloadParams traffic = defaultTraffic();
        ExperimentParams params = benchExperiment(quick);
        applyOverrides(cli, net, traffic, params);
        traffic.load = 0.05;
        runner.add("cb-ref", net, traffic, params);
    }
    runner.run();

    std::size_t idx = 0;
    for (int flits : sizes) {
        const ExperimentResult &r = runner.results()[idx++];
        std::printf("%8d %9.1f | %s %s %9.3f%s\n", flits,
                    static_cast<double>(flits) / 73.0,
                    cell(r.mcastAvgAvg(), r.mcastCount()).c_str(),
                    cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                    r.deliveredLoad(), satMark(r));
    }
    const ExperimentResult &r = runner.results()[idx];
    std::printf("%8s %9s | %s %s %9.3f%s   (central buffer, 1024 "
                "shared flits)\n",
                "cb-ref", "-",
                cell(r.mcastAvgAvg(), r.mcastCount()).c_str(),
                cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                r.deliveredLoad(), satMark(r));
    maybeReport(sc, runner);
    return 0;
}
