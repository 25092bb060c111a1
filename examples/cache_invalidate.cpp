/**
 * @file
 * DSM cache-invalidation scenario (the paper's motivating DSM use
 * case, cf. Dai/Panda ICPP'96): directories multicast short
 * invalidation messages to sharer sets while ordinary read/write
 * traffic runs in the background. Invalidation latency is the
 * *last-copy* latency — the writer stalls until every sharer has
 * acknowledged — so the multicast implementation directly bounds
 * write latency.
 *
 * Run: ./cache_invalidate [key=value ...]
 */

#include <cstdio>

#include "core/presets.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;

    Config cli;
    cli.parseArgs(argc, argv);
    const bool quick = cli.getBool("quick", false);

    std::printf("DSM cache invalidation: 16-flit invalidations to "
                "random sharer sets\nover a 30%% unicast background "
                "(64-node bidirectional MIN)\n\n");
    std::printf("%-10s %14s %14s %14s\n", "scheme", "inval-last",
                "inval-avg", "bg-unicast");

    for (Scheme scheme : kAllSchemes) {
        NetworkConfig net = networkFor(scheme);
        // Invalidations are latency-critical: model a lean protocol
        // processor with small software overheads.
        net.nic.sendOverhead = 40;
        net.nic.recvOverhead = 40;

        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::Bimodal;
        traffic.load = 0.06;
        traffic.payloadFlits = 16; // an invalidation + address block
        traffic.mcastDegree = 8;   // sharer-set size
        traffic.mcastFraction = 0.7;

        ExperimentParams params;
        params.warmup = quick ? 2000 : 10000;
        params.measure = quick ? 6000 : 30000;

        const ExperimentResult r =
            Experiment(net, traffic, params).run();
        std::printf("%-10s %14.1f %14.1f %14.1f%s\n", toString(scheme),
                    r.mcastLastAvg(), r.mcastAvgAvg(), r.unicastAvg(),
                    r.saturated ? "  (saturated)" : "");
    }

    std::printf("\nThe writer resumes after the LAST invalidation "
                "lands; single-phase\nmultidestination worms keep "
                "that bound tight, while the software tree\nadds a "
                "full protocol-processor turnaround per phase.\n");
    return 0;
}
