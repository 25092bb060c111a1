/**
 * @file
 * MPI-style collectives as closed-loop kernels: a barrier (arrive
 * unicasts + release multicast), an allreduce (reduce unicasts +
 * result multicast), and an invalidation round (a rotating owner
 * multicasts to every other member) over one communicator, timed
 * under all three multicast implementations. This is the
 * broadcast+reduction pattern the paper's introduction motivates.
 *
 * Run: ./collective_barrier [key=value ...]  (e.g. members=32)
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/presets.hh"
#include "workload/kernels.hh"

namespace {

using namespace mdw;

/** Mean cycles per round of @p op over a group of @p groupSize. */
double
meanRound(Scheme scheme, CollectiveOp op, int groupSize, int rounds)
{
    NetworkConfig netcfg = networkFor(scheme);
    netcfg.nic.sendOverhead = 50;
    netcfg.nic.recvOverhead = 50;
    Network net(netcfg);

    WorkloadParams params;
    params.kind = WorkloadKind::Collective;
    params.collective = op;
    params.rounds = rounds;
    // groupSize 0 = every host; a smaller group is drawn from the seed.
    params.groupSize =
        groupSize >= static_cast<int>(net.numHosts()) ? 0 : groupSize;
    params.payloadFlits = op == CollectiveOp::Allreduce ? 16 : 64;
    CollectiveKernelWorkload kernel(net.numHosts(), params);
    net.attachWorkload(&kernel);
    if (!net.sim().runUntil(
            [&] { return kernel.exhausted() && net.idle(); },
            1000000)) {
        std::fprintf(stderr, "collective did not complete\n");
        std::exit(1);
    }
    net.detachWorkload();
    return kernel.roundCycles().mean();
}

} // namespace

int
main(int argc, char **argv)
{
    Config cli;
    cli.parseArgs(argc, argv);
    const int members =
        std::max(1, static_cast<int>(cli.getInt("members", 31)));
    const int rounds =
        std::max(1, static_cast<int>(cli.getInt("rounds", 4)));

    std::printf("collective operations on a 64-node bidirectional "
                "MIN\n%d members + root, %d rounds, cycles per "
                "operation\n\n",
                members, rounds);
    std::printf("%-10s %10s %10s %10s\n", "scheme", "barrier",
                "allreduce", "invalidate");
    for (Scheme scheme : kAllSchemes) {
        double t[3];
        int i = 0;
        for (CollectiveOp op :
             {CollectiveOp::Barrier, CollectiveOp::Allreduce,
              CollectiveOp::Invalidate})
            t[i++] = meanRound(scheme, op, members + 1, rounds);
        std::printf("%-10s %10.0f %10.0f %10.0f\n", toString(scheme),
                    t[0], t[1], t[2]);
    }
    std::printf("\nEvery operation contains one release/result "
                "multicast; single-phase\nmultidestination worms cut "
                "it to one traversal plus one start-up.\n");
    return 0;
}
