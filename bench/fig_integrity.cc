/**
 * @file
 * E12 — Multicast integrity under transient link errors. Sweeps the
 * per-flit bit-error rate against offered load and reports, for each
 * scheme, the multicast last-destination latency plus the recovery
 * activity behind it: link-level NAK/replay rounds, residual
 * (CRC-evading) errors caught by the end-to-end checksum at the NIC,
 * and host-level retransmissions of the discarded copies.
 *
 * Expected shape: the link-level retry absorbs detected corruption at
 * a one-round-trip cost per hit, so latency degrades gently with BER;
 * residual errors are rarer but far more expensive (a whole
 * end-to-end retransmission). The wide software trees of SW-UMin
 * expose more wire traversals per multicast than the hardware worms,
 * so the same BER costs them proportionally more. A zero-BER row must
 * match the fault-free figures exactly: the subsystem is off.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E12");

    static const double kBers[] = {0.0, 1e-4, 5e-4, 2e-3};
    static const double kLoads[] = {0.05, 0.15};
    static const Scheme kSchemes[] = {Scheme::CbHw, Scheme::IbHw,
                                      Scheme::SwUmin};
    // P(corruption evades the link CRC | corrupted): a deliberately
    // pessimistic stand-in for the ~2^-16 of a real CRC-16 so runs
    // this short still exercise the end-to-end checksum path.
    const double residual = 0.05;

    banner("E12", "multicast integrity vs link bit-error rate",
           "64 nodes, degree 8, 64-flit payload, retransmission on");
    std::printf("%8s %5s |", "ber", "load");
    for (Scheme scheme : kSchemes)
        std::printf("%10s %6s %5s %6s |", toString(scheme), "naks",
                    "csum", "retx");
    std::printf("\n");
    std::fflush(stdout);

    SweepRunner runner(sc.options);
    armFatalReport(sc, runner);
    for (double ber : kBers) {
        for (double load : kLoads) {
            for (Scheme scheme : kSchemes) {
                NetworkConfig net = networkFor(scheme);
                WorkloadParams traffic = defaultTraffic();
                ExperimentParams params = benchExperiment(quick);
                applyOverrides(cli, net, traffic, params);
                traffic.load = load;
                net.faultSpec.ber = ber;
                net.faultSpec.residual = ber > 0.0 ? residual : 0.0;
                net.nic.retransmitTimeout = 20000;
                char label[48];
                std::snprintf(label, sizeof(label),
                              "%s ber=%g load=%g", toString(scheme),
                              ber, load);
                runner.add(label, net, traffic, params);
            }
        }
    }
    runner.run();

    std::size_t idx = 0;
    for (double ber : kBers) {
        for (double load : kLoads) {
            std::printf("%8g %5.2f |", ber, load);
            for (Scheme scheme : kSchemes) {
                (void)scheme;
                const ExperimentResult &r = runner.results()[idx++];
                std::printf(
                    "%10s %6llu %5llu %6llu%s|",
                    cell(r.mcastLastAvg(), r.mcastCount()).c_str(),
                    static_cast<unsigned long long>(r.linkNaks()),
                    static_cast<unsigned long long>(r.csumFails()),
                    static_cast<unsigned long long>(r.retransmits()),
                    satMark(r));
            }
            std::printf("\n");
        }
    }
    maybeReport(sc, runner);
    return 0;
}
