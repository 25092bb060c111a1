/**
 * @file
 * E9 — The simulation-parameter table: prints every default the
 * other benches run with (the paper's "simulation parameters and
 * methodology" table, SP-Switch flavored).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    (void)parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E9");

    NetworkConfig net = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = defaultExperiment();
    applyOverrides(cli, net, traffic, params);
    Network network(net);

    std::printf("# E9: default simulation parameters\n");
    std::printf("%-32s %s\n", "topology",
                network.topology().describe().c_str());
    std::printf("%-32s %d up / %d down per switch\n", "switch ports",
                net.fatTreeK, net.fatTreeK);
    std::printf("%-32s 1 flit (%d bits) per cycle per direction\n",
                "link bandwidth", net.nic.enc.flitBits);
    std::printf("%-32s %llu cycle(s)\n", "link delay",
                static_cast<unsigned long long>(net.linkDelay));
    std::printf("%-32s %d chunks x %d flits = %d flits\n",
                "central buffer", net.cb.cqChunks, net.cb.chunkFlits,
                net.cb.cqChunks * net.cb.chunkFlits);
    std::printf("%-32s %d flits\n", "CB input FIFO",
                net.cb.inputFifoFlits);
    std::printf("%-32s %d flits\n", "CB output FIFO",
                net.cb.outputFifoFlits);
    std::printf("%-32s %d flits (>= largest packet)\n",
                "IB input buffer", net.ib.bufferFlits);
    std::printf("%-32s %d flits\n", "unicast header",
                net.nic.enc.unicastHeaderFlits);
    std::printf("%-32s %d flits (bit-string, %zu nodes)\n",
                "multicast header", network.mcastHeaderFlits(),
                network.numHosts());
    std::printf("%-32s %d flits\n", "largest packet",
                network.maxPacketFlits());
    std::printf("%-32s %llu cycles\n", "NIC send overhead",
                static_cast<unsigned long long>(net.nic.sendOverhead));
    std::printf("%-32s %llu cycles\n", "NIC receive overhead",
                static_cast<unsigned long long>(net.nic.recvOverhead));
    std::printf("%-32s %s\n", "routing variant",
                toString(net.sw.variant));
    std::printf("%-32s %s\n", "up-port policy",
                toString(net.sw.upPolicy));
    std::printf("%-32s %d flits\n", "default payload",
                traffic.payloadFlits);
    std::printf("%-32s %d\n", "default multicast degree",
                traffic.mcastDegree);
    std::printf("%-32s %llu warmup + %llu measure cycles\n",
                "measurement",
                static_cast<unsigned long long>(params.warmup),
                static_cast<unsigned long long>(params.measure));
    maybeReportSimple(sc);
    return 0;
}
