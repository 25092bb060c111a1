/**
 * @file
 * Quickstart: build a 16-node bidirectional MIN with central-buffer
 * switches, send one hardware multidestination broadcast and one
 * unicast, and print what happened.
 *
 * Run: ./quickstart [key=value ...]   (e.g. scheme=sw arch=ib)
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
    netcfg.fatTreeK = 4;
    netcfg.fatTreeN = 2; // 16 hosts
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams expcfg = defaultExperiment();
    applyOverrides(cli, netcfg, traffic, expcfg);

    Network net(netcfg);
    std::printf("topology : %s\n", net.topology().describe().c_str());
    std::printf("switch   : %s\n", toString(netcfg.arch));
    std::printf("multicast: %s, %s encoding\n",
                toString(netcfg.nic.scheme),
                toString(netcfg.nic.encoding));
    std::printf("header   : %d flits for a multicast worm\n\n",
                net.mcastHeaderFlits());

    // Broadcast 64 payload flits from node 0 to everyone else.
    DestSet everyone(net.numHosts());
    for (NodeId n = 1; n < static_cast<NodeId>(net.numHosts()); ++n)
        everyone.set(n);
    const Cycle t0 = net.sim().now();
    net.nic(0).postMulticast(everyone, 64, t0);

    // And an unrelated unicast from node 5 to node 10.
    net.nic(5).postUnicast(10, 64, t0);

    net.armWatchdog(10000);
    const bool done =
        net.sim().runUntil([&net] { return net.idle(); }, 100000);
    if (!done) {
        std::printf("ERROR: traffic did not drain\n");
        return 1;
    }

    const McastTracker &tracker = net.tracker();
    std::printf("broadcast to %zu nodes:\n", everyone.count());
    std::printf("  last-copy latency : %.0f cycles\n",
                tracker.mcastLastLatency().mean());
    std::printf("  avg-copy latency  : %.0f cycles\n",
                tracker.mcastAvgLatency().mean());
    std::printf("unicast latency     : %.0f cycles\n",
                tracker.unicastLatency().mean());

    const NetworkTotals totals = net.totals();
    std::printf("\nswitch totals: %llu flits routed, "
                "%llu worm replications\n",
                static_cast<unsigned long long>(totals.flitsIn),
                static_cast<unsigned long long>(totals.replications));
    std::printf("simulated %llu cycles\n",
                static_cast<unsigned long long>(net.sim().now()));
    return 0;
}
