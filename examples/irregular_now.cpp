/**
 * @file
 * Multicast on an irregular network of workstations (paper Fig 1c):
 * a random switch graph with up*-down* routing. Demonstrates that
 * the multidestination-worm machinery — reachability decode, LCA
 * routing, asynchronous replication, reservation-based deadlock
 * freedom — carries over unchanged from the bidirectional MIN.
 *
 * Run: ./irregular_now [key=value ...]  (e.g. seed=7 switches=20)
 */

#include <cstdio>

#include "core/presets.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;

    Config cli;
    cli.parseArgs(argc, argv);

    NetworkConfig netcfg = defaultNetwork();
    netcfg.topo = TopologyKind::Irregular;
    netcfg.irregular.switches =
        static_cast<int>(cli.getInt("switches", 16));
    netcfg.irregular.hosts = static_cast<int>(cli.getInt("hosts", 32));
    netcfg.irregular.radix = static_cast<int>(cli.getInt("radix", 8));
    netcfg.irregular.extraLinks =
        static_cast<int>(cli.getInt("extraLinks", 8));
    netcfg.seed = cli.getU64("seed", 11);
    const bool quick = cli.getBool("quick", false);

    {
        Network probe(netcfg);
        std::printf("topology: %s\n\n",
                    probe.topology().describe().c_str());
    }

    std::printf("multiple multicast on the NOW (load 0.015, degree 6, 32-flit "
                "payload)\n\n");
    std::printf("%-10s %10s %10s %10s %6s\n", "scheme", "mc-avg",
                "mc-last", "deliv", "sat");

    for (Scheme scheme : kAllSchemes) {
        NetworkConfig net = networkFor(scheme);
        net.topo = TopologyKind::Irregular;
        net.irregular = netcfg.irregular;
        net.seed = netcfg.seed;

        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.015;
        traffic.payloadFlits = 32;
        traffic.mcastDegree = 6;

        ExperimentParams params;
        params.warmup = quick ? 2000 : 10000;
        params.measure = quick ? 6000 : 30000;

        const ExperimentResult r =
            Experiment(net, traffic, params).run();
        std::printf("%-10s %10.1f %10.1f %10.3f %6s\n",
                    toString(scheme), r.mcastAvgAvg(), r.mcastLastAvg(),
                    r.deliveredLoad(), r.saturated ? "yes" : "no");
    }

    std::printf("\nup*-down* orientation keeps down-links acyclic, so "
                "the same reservation\nrule that protects the MIN "
                "protects an arbitrary NOW.\n");
    return 0;
}
