/**
 * @file
 * Trace-driven simulation: record a small communication pattern to a
 * trace file, replay it through the simulator, and report per-message
 * statistics. Demonstrates the workload/trace API for driving the
 * network with recorded or hand-crafted patterns instead of
 * synthetic arrivals.
 *
 * Run: ./trace_replay [key=value ...]  (e.g. trace=/path/to/file).
 * With v2=1 (and no trace=) the demo pattern is a dependency-carrying
 * v2 trace instead: a binary-tree reduction into node 0, a release
 * multicast gated on the reduction, and a final acknowledgement wave
 * gated on the release — each stage issued only after the completions
 * of the stage before it.
 */

#include <cstdio>

#include "core/presets.hh"
#include "workload/trace.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;

    Config cli;
    cli.parseArgs(argc, argv);

    NetworkConfig netcfg = defaultNetwork();
    netcfg.fatTreeK = 4;
    netcfg.fatTreeN = 2; // 16 hosts
    Network net(netcfg);

    std::string path = cli.getString("trace", "");
    const bool v2 = cli.getBool("v2", false);
    if (path.empty() && v2) {
        // Dependency-carrying demo: reduce -> release -> acknowledge.
        path = "/tmp/mdworm_demo_v2.trace";
        std::vector<TraceEvent> events;
        std::uint64_t next_id = 0;
        std::vector<std::uint64_t> prev_stage;
        for (int stride = 1; stride < 16; stride *= 2) {
            std::vector<std::uint64_t> stage;
            for (NodeId n = 0; n < 16;
                 n = static_cast<NodeId>(n + 2 * stride)) {
                TraceEvent reduce;
                reduce.id = ++next_id;
                reduce.deps = prev_stage;
                reduce.when = 0;
                reduce.src = static_cast<NodeId>(n + stride);
                reduce.spec.dest = n;
                reduce.spec.payloadFlits = 16;
                stage.push_back(reduce.id);
                events.push_back(std::move(reduce));
            }
            prev_stage = std::move(stage);
        }
        TraceEvent release;
        release.id = ++next_id;
        release.deps = prev_stage;
        release.when = 0;
        release.src = 0;
        release.spec.multicast = true;
        release.spec.dests = DestSet(16);
        for (NodeId n = 1; n < 16; ++n)
            release.spec.dests.set(n);
        release.spec.payloadFlits = 64;
        const std::uint64_t release_id = release.id;
        events.push_back(std::move(release));
        for (NodeId n = 1; n < 16; ++n) {
            TraceEvent ack;
            ack.id = ++next_id;
            ack.deps = {release_id};
            ack.when = 0;
            ack.src = n;
            ack.spec.dest = 0;
            ack.spec.payloadFlits = 8;
            events.push_back(std::move(ack));
        }
        TraceTraffic::writeFile(path, events);
        std::printf("wrote v2 dependency trace to %s\n", path.c_str());
    } else if (path.empty()) {
        // No trace given: write a demo pattern — a neighbor shift,
        // two staggered multicasts, and a reduction-like fan-in.
        path = "/tmp/mdworm_demo.trace";
        std::vector<TraceEvent> events;
        for (NodeId n = 0; n < 16; ++n) {
            TraceEvent shift;
            shift.when = 0;
            shift.src = n;
            shift.spec.dest = static_cast<NodeId>((n + 1) % 16);
            shift.spec.payloadFlits = 32;
            events.push_back(shift);
        }
        for (Cycle when : {200, 400}) {
            TraceEvent mcast;
            mcast.when = when;
            mcast.src = static_cast<NodeId>(when / 200 - 1);
            mcast.spec.multicast = true;
            mcast.spec.dests =
                DestSet::of(16, {3, 5, 7, 9, 11, 13, 15});
            mcast.spec.dests.clear(mcast.src);
            mcast.spec.payloadFlits = 64;
            events.push_back(mcast);
        }
        for (NodeId n = 1; n < 16; ++n) {
            TraceEvent fanin;
            fanin.when = 800;
            fanin.src = n;
            fanin.spec.dest = 0;
            fanin.spec.payloadFlits = 8;
            events.push_back(fanin);
        }
        TraceTraffic::writeFile(path, events);
        std::printf("wrote demo trace to %s\n", path.c_str());
    }

    TraceTraffic trace = TraceTraffic::fromFile(path, net.numHosts());
    std::printf("replaying %zu events on %s\n\n", trace.size(),
                net.topology().describe().c_str());
    net.attachWorkload(&trace);
    net.armWatchdog(50000);

    const bool done = net.sim().runUntil(
        [&net, &trace] {
            return trace.pending() == 0 && net.idle();
        },
        1000000);
    if (!done) {
        std::printf("ERROR: trace did not drain\n");
        return 1;
    }

    const McastTracker &tracker = net.tracker();
    std::printf("completed in %llu cycles\n",
                static_cast<unsigned long long>(net.sim().now()));
    std::printf("unicasts : %llu, avg latency %.1f cycles\n",
                static_cast<unsigned long long>(
                    tracker.unicastLatency().count()),
                tracker.unicastLatency().mean());
    std::printf("multicasts: %llu, avg last-copy latency %.1f cycles\n",
                static_cast<unsigned long long>(
                    tracker.mcastLastLatency().count()),
                tracker.mcastLastLatency().mean());
    std::printf("deliveries: %llu\n",
                static_cast<unsigned long long>(
                    tracker.totalDeliveries()));

    // Closed-loop accounting: every trace event must have retired.
    const std::uint64_t retired =
        tracker.totalCompleted() + tracker.partialCompleted();
    if (retired != trace.size()) {
        std::printf("ERROR: %llu of %zu events retired\n",
                    static_cast<unsigned long long>(retired),
                    trace.size());
        return 1;
    }
    std::printf("all %zu events completed\n", trace.size());
    return 0;
}
