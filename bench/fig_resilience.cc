/**
 * @file
 * E11 — Multicast latency degradation under link faults. Kills an
 * increasing number of randomly chosen switch-switch links early in
 * the measurement window and reports last-destination multicast
 * latency plus recovery activity (retransmissions, partially
 * completed multicasts) for the hardware and software schemes.
 *
 * Expected shape: hardware worms degrade gracefully — a dead link
 * costs one rerouted path and the occasional retransmission — while
 * the U-Min software tree loses whole subtrees per carrier and leans
 * much harder on host-level recovery.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E11");

    static const int kFaultCounts[] = {0, 1, 2, 4, 8};
    static const Scheme kSchemes[] = {Scheme::CbHw, Scheme::SwUmin};

    banner("E11", "multicast latency vs link-fault count",
           "64 nodes, degree 8, 64-flit payload, retransmission on");
    std::printf("%7s |%10s %7s %7s %8s |%10s %7s %7s %8s\n", "faults",
                "cb-last", "retx", "partial", "unreach", "sw-last",
                "retx", "partial", "unreach");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (int faults : kFaultCounts) {
        for (Scheme scheme : kSchemes) {
            NetworkConfig net = networkFor(scheme);
            WorkloadParams traffic = defaultTraffic();
            ExperimentParams params = benchExperiment(quick);
            applyOverrides(cli, net, traffic, params);
            net.faultSpec.links = faults;
            net.faultSpec.start = params.warmup;
            net.faultSpec.end = params.warmup + params.measure / 2;
            net.nic.retransmitTimeout = 20000;
            char label[48];
            std::snprintf(label, sizeof(label), "%s faults=%d",
                          toString(scheme), faults);
            runner.add(label, net, traffic, params);
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (int faults : kFaultCounts) {
        std::printf("%7d |", faults);
        for (Scheme scheme : kSchemes) {
            (void)scheme;
            const ExperimentResult &r = runner.results()[idx++];
            std::printf("%10s %7llu %7llu %8llu %s",
                        cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                        static_cast<unsigned long long>(r.retransmits()),
                        static_cast<unsigned long long>(
                            r.partialCompleted()),
                        static_cast<unsigned long long>(
                            r.unreachableDests()),
                        scheme == Scheme::CbHw ? "|" : "");
        }
        std::printf("\n");
    }
    maybeReport(sc, runner);
    return 0;
}
