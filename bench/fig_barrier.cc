/**
 * @file
 * E10 — Barrier synchronization (the paper's stated future work,
 * developed in the authors' companion IPPS'97 paper): absolute
 * barrier latency and its impact on background unicast traffic, for
 * each multicast implementation. The barrier is arrive-unicasts +
 * release-multicast; the release dominates, so the multicast scheme
 * sets the barrier cost.
 */

#include "bench_common.hh"

#include "core/hw_barrier.hh"
#include "workload/kernels.hh"

namespace {

using namespace mdw;
using namespace mdw::bench;

struct BarrierResult
{
    double meanCycles = 0.0;
    double bgUnicastLatency = 0.0;
};

/** Mean hardware-barrier round time (switch combining + release),
 *  with the manager attached ahead of @p background (may be null). */
double
hwBarrierCycles(Network &net, Workload *background, int rounds,
                Cycle warmup, Cycle spacing)
{
    HwBarrierManager hw(net);
    std::vector<Workload *> children{&hw};
    if (background != nullptr)
        children.push_back(background);
    WorkloadMix mix(std::move(children));
    net.attachWorkload(&mix);
    net.sim().run(warmup);
    DestSet all(net.numHosts());
    for (NodeId m = 0; m < static_cast<NodeId>(net.numHosts()); ++m)
        all.set(m);
    const int group = hw.createGroup(all);

    Sampler barrier_cycles;
    for (int round = 0; round < rounds; ++round) {
        const Cycle start = net.sim().now();
        bool finished = false;
        Cycle done_at = 0;
        hw.startBarrier(group, [&](Cycle now) {
            finished = true;
            done_at = now;
        });
        if (!net.sim().runUntil([&] { return finished; }, 500000))
            break;
        barrier_cycles.add(static_cast<double>(done_at - start));
        net.sim().run(spacing);
    }
    net.detachWorkload();
    return barrier_cycles.mean();
}

BarrierResult
measure(Scheme scheme, bool hwCombining, double bgLoad, int rounds,
        const Config &cli, bool quick)
{
    NetworkConfig netcfg = networkFor(scheme);
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams params = benchExperiment(quick);
    applyOverrides(cli, netcfg, traffic, params);
    // Warm the background up, then space the rounds out a little.
    const Cycle warmup = quick ? 2000 : 5000;
    const Cycle spacing = quick ? 500 : 2000;

    Network net(netcfg);

    // Background unicast traffic, running for the whole experiment.
    WorkloadParams bg;
    bg.pattern = TrafficPattern::UniformUnicast;
    bg.load = bgLoad;
    bg.payloadFlits = 64;
    SyntheticTraffic source(net.numHosts(), bg);
    net.tracker().setWindow(0, kNoCycle);
    net.armWatchdog(200000);

    BarrierResult result;
    if (hwCombining) {
        result.meanCycles =
            hwBarrierCycles(net, bgLoad > 0.0 ? &source : nullptr,
                            rounds, warmup, spacing);
    } else {
        // Arrive unicasts to root 0, then its release multicast; the
        // kernel polls ahead of the background in every NIC.
        WorkloadParams kp;
        kp.kind = WorkloadKind::Collective;
        kp.collective = CollectiveOp::Barrier;
        kp.rounds = rounds;
        kp.startCycle = warmup;
        kp.think = spacing;
        CollectiveKernelWorkload kernel(net.numHosts(), kp);
        std::vector<Workload *> children{&kernel};
        if (bgLoad > 0.0)
            children.push_back(&source);
        WorkloadMix mix(std::move(children));
        net.attachWorkload(&mix);
        net.sim().runUntil([&] { return kernel.exhausted(); },
                           warmup + Cycle(rounds) * 500000);
        // The spacing after the last round, as the hardware path.
        net.sim().run(spacing);
        net.detachWorkload();
        result.meanCycles = kernel.roundCycles().mean();
    }
    result.bgUnicastLatency = net.tracker().unicastLatency().mean();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const SweepCli sc = parseSweepCli(cli, "E10");
    const int rounds = quick ? 3 : 10;

    banner("E10", "64-node full barrier: latency and background impact",
           "hw = switch combining + release worm; others = arrive "
           "unicasts + release multicast");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n", "",
                "hw-comb", "", "cb-hw", "", "ib-hw", "", "sw-umin", "");
    std::printf("%8s | %9s %9s | %9s %9s | %9s %9s | %9s %9s\n",
                "bg-load", "barrier", "bg-uni", "barrier", "bg-uni",
                "barrier", "bg-uni", "barrier", "bg-uni");

    const std::vector<double> bg_loads =
        quick ? std::vector<double>{0.0, 0.1}
              : std::vector<double>{0.0, 0.05, 0.1, 0.2};
    for (double bg : bg_loads) {
        std::printf("%8.2f", bg);
        {
            const BarrierResult r =
                measure(Scheme::CbHw, true, bg, rounds, cli, quick);
            std::printf(" | %9.0f %9.1f", r.meanCycles,
                        r.bgUnicastLatency);
        }
        for (Scheme scheme : kAllSchemes) {
            const BarrierResult r =
                measure(scheme, false, bg, rounds, cli, quick);
            std::printf(" | %9.0f %9.1f", r.meanCycles,
                        r.bgUnicastLatency);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    maybeReportSimple(sc);
    return 0;
}
