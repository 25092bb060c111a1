/**
 * @file
 * Extreme-scale and shard-speedup bench for the sharded scheduler.
 *
 * Two parts:
 *
 *   scale     — extends E5's system-size curve far past the paper's
 *               512 hosts: 4-ary n-trees from 64 up to 65,536 hosts
 *               (n = 8), run sharded at low load, reporting wall
 *               clock, per-shard wall clock (partition balance), and
 *               boundary traffic per point; the time to build the
 *               topology (graph and routing tables) and the peak
 *               resident memory go to stderr and the JSON.
 *   contended — a >= 1024-host system under heavy multicast load,
 *               timed flat and at 2/4/8 shards. This is the speedup
 *               case sharding exists for; the per-case results are
 *               verified bit-identical to the flat run.
 *
 * Results land in BENCH_shards.json together with the host's
 * hardware thread count — speedups are only meaningful (and only
 * asserted under check=1) when the hardware can actually run the
 * shards concurrently; on smaller hosts the numbers are recorded
 * as measured, not fabricated.
 *
 * With report=1 the mdw-report stream on stderr includes the
 * per-shard "shards" record, which validate_report.py cross-checks
 * against the flat network.* rollups (sharding must never lose or
 * double-count work).
 *
 * Usage: fig_extreme_scale [quick=1] [check=1] [report=1]
 *                          [maxHosts=65536] [out=BENCH_shards.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "topology/fat_tree.hh"

namespace {

using namespace mdw;

double
msSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/** Peak resident memory of this process in MiB (VmHWM), or -1 where
 *  /proc/self/status does not report it. */
double
peakRssMb()
{
    double mb = -1.0;
    if (FILE *status = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kb = 0;
        while (std::fgets(line, sizeof line, status)) {
            if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
                mb = static_cast<double>(kb) / 1024.0;
        }
        std::fclose(status);
    }
    return mb;
}

std::size_t
hostsForLevels(int k, int n)
{
    std::size_t hosts = 1;
    for (int i = 0; i < n; ++i)
        hosts *= static_cast<std::size_t>(k);
    return hosts;
}

struct ScaleRow
{
    std::size_t hosts = 0;
    std::size_t switches = 0;
    Cycle cycles = 0;
    double wallMs = 0.0;
    double maxShardWallMs = 0.0;
    double minShardWallMs = 0.0;
    std::uint64_t boundarySends = 0;
    std::uint64_t flitsIn = 0;
    double topologyBuildMs = 0.0;
    double peakRssMb = 0.0;
};

struct SpeedupRow
{
    std::size_t shards = 0; // 0 = flat fast path
    double wallMs = 0.0;
    double speedup = 1.0;
    bool identical = true;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const bool check = cli.getBool("check", false);
    const bool report = cli.getBool("report", false);
    const std::size_t maxHosts = static_cast<std::size_t>(
        cli.getU64("maxHosts", quick ? 1024 : 65536));
    const std::string out = cli.getString("out", "BENCH_shards.json");

    const unsigned hwThreads =
        std::max(1u, std::thread::hardware_concurrency());
    bool failed = false;

    banner("extreme_scale",
           "sharded scheduler at scale (E5 curve extended)",
           "4-ary n-tree, multiple multicast");
    std::printf("# hardware threads: %u\n", hwThreads);

    // --- Part 1: scale curve to 65,536 hosts -------------------------
    std::printf("%8s %8s %8s | %9s %9s %9s %12s\n", "hosts",
                "switches", "cycles", "wall-ms", "sh-max-ms",
                "sh-min-ms", "boundary");
    std::fflush(stdout);

    std::vector<ScaleRow> scale;
    ExperimentResult lastSharded;
    for (int n = 3; hostsForLevels(4, n) <= maxHosts; ++n) {
        NetworkConfig network = networkFor(Scheme::CbHw);
        network.fatTreeN = n;
        network.fastPath = true;
        network.shards = 4;
        network.shardThreads = 0; // auto: one per hardware thread
        // Bit-string headers carry one bit per host, so past a few
        // thousand hosts the largest worm outgrows the central queue
        // -- exactly the scalability limit the paper's multiport
        // encoding exists to remove. Use it for the scale curve.
        network.nic.encoding = McastEncoding::Multiport;
        WorkloadParams traffic = defaultTraffic();
        // Light load: at extreme size the interesting quantities are
        // the per-cycle scheduling costs and the boundary traffic,
        // not saturation behavior. (Not *too* light, though — the
        // smallest points must still inject enough worms to exercise
        // the shard boundaries in a quick run.)
        traffic.load = 0.01;
        ExperimentParams params;
        params.warmup = quick ? 300 : 1000;
        params.measure = quick ? 800 : 3000;
        params.drainLimit = 60000;
        params.watchdogQuiet = 200000;

        // The topology on its own first: graph plus routing tables,
        // the part of network build that grows with the host count.
        auto start = std::chrono::steady_clock::now();
        {
            const FatTree tree(4, n);
        }
        const double topologyBuildMs = msSince(start);

        start = std::chrono::steady_clock::now();
        const ExperimentResult result =
            Experiment(network, traffic, params).run();
        const double wallMs = msSince(start);

        ScaleRow row;
        row.hosts = hostsForLevels(4, n);
        row.switches = static_cast<std::size_t>(n) * row.hosts / 4;
        row.cycles = result.cyclesRun;
        row.wallMs = wallMs;
        row.flitsIn = result.metrics.counter("network.flits_in");
        double maxMs = 0.0, minMs = 0.0;
        for (std::size_t s = 0; s < result.effectiveShards; ++s) {
            const double ms = static_cast<double>(
                                  result.shardStats[s].wallNs) /
                              1e6;
            maxMs = std::max(maxMs, ms);
            minMs = s == 0 ? ms : std::min(minMs, ms);
            row.boundarySends += result.shardStats[s].boundarySends;
        }
        row.maxShardWallMs = maxMs;
        row.minShardWallMs = minMs;
        row.topologyBuildMs = topologyBuildMs;
        row.peakRssMb = peakRssMb();
        scale.push_back(row);
        lastSharded = result;

        std::printf("%8zu %8zu %8llu | %9.1f %9.1f %9.1f %12llu\n",
                    row.hosts, row.switches,
                    static_cast<unsigned long long>(row.cycles),
                    row.wallMs, row.maxShardWallMs,
                    row.minShardWallMs,
                    static_cast<unsigned long long>(
                        row.boundarySends));
        std::fflush(stdout);
        std::fprintf(stderr,
                     "# %zu hosts: topology build %.1f ms, peak RSS "
                     "%.1f MB\n",
                     row.hosts, row.topologyBuildMs, row.peakRssMb);

        if (result.effectiveShards != 4) {
            std::fprintf(stderr,
                         "# FAIL %zu hosts: sharding vetoed (%zu)\n",
                         row.hosts, result.effectiveShards);
            failed = true;
        }
        if (row.boundarySends == 0) {
            std::fprintf(stderr,
                         "# FAIL %zu hosts: no boundary traffic -- "
                         "partition or boundary wiring broken\n",
                         row.hosts);
            failed = true;
        }
    }

    // --- Part 2: contended speedup at >= 1024 hosts ------------------
    {
        NetworkConfig network = networkFor(Scheme::CbHw);
        network.fatTreeN = 5; // 1024 hosts
        network.fastPath = true;
        WorkloadParams traffic = defaultTraffic();
        traffic.load = 0.3; // heavily contended: nothing sleeps long
        ExperimentParams params;
        params.warmup = quick ? 200 : 1000;
        params.measure = quick ? 600 : 3000;
        params.drainLimit = quick ? 60000 : 200000;
        params.watchdogQuiet = 200000;

        std::printf("# contended: %zu hosts, load %.2f\n",
                    hostsForLevels(4, network.fatTreeN), traffic.load);
        std::printf("%8s | %9s %8s %s\n", "shards", "wall-ms",
                    "speedup", "identical");
        std::fflush(stdout);

        network.shards = 1;
        auto start = std::chrono::steady_clock::now();
        const ExperimentResult flat =
            Experiment(network, traffic, params).run();
        const double flatMs = msSince(start);

        std::vector<SpeedupRow> speedups;
        SpeedupRow flatRow;
        flatRow.wallMs = flatMs;
        speedups.push_back(flatRow);
        std::printf("%8s | %9.1f %7.2fx %s\n", "flat", flatMs, 1.0,
                    "yes");
        std::fflush(stdout);

        for (std::size_t shards :
             quick ? std::vector<std::size_t>{4}
                   : std::vector<std::size_t>{2, 4, 8}) {
            network.shards = shards;
            network.shardThreads = 0;
            start = std::chrono::steady_clock::now();
            const ExperimentResult sharded =
                Experiment(network, traffic, params).run();
            SpeedupRow row;
            row.shards = shards;
            row.wallMs = msSince(start);
            row.speedup =
                row.wallMs > 0.0 ? flatMs / row.wallMs : 0.0;
            row.identical = identicalResults(flat, sharded);
            speedups.push_back(row);
            lastSharded = sharded;

            std::printf("%8zu | %9.1f %7.2fx %s\n", shards,
                        row.wallMs, row.speedup,
                        row.identical ? "yes" : "NO");
            std::fflush(stdout);

            if (!row.identical) {
                std::fprintf(stderr,
                             "# FAIL %zu shards: diverged from the "
                             "flat scheduler\n",
                             shards);
                failed = true;
            }
            // The speedup gate only binds where the hardware can run
            // the shards concurrently; elsewhere the honest numbers
            // are recorded but not asserted.
            if (shards == 4 && hwThreads >= 4 &&
                row.speedup < 2.0) {
                std::fprintf(stderr,
                             "# FAIL 4 shards: %.2fx < 2x on %u "
                             "hardware threads\n",
                             row.speedup, hwThreads);
                failed = true;
            }
        }

        if (FILE *json = std::fopen(out.c_str(), "w")) {
            std::fprintf(
                json,
                "{\n  \"schema\": \"mdw-bench/1\",\n"
                "  \"bench\": \"shards\",\n"
                "  \"hw_threads\": %u,\n  \"quick\": %s,\n"
                "  \"contended\": {\"hosts\": %zu, \"load\": %.2f, "
                "\"cycles\": %llu, \"cases\": [\n",
                hwThreads, quick ? "true" : "false",
                hostsForLevels(4, 5), traffic.load,
                static_cast<unsigned long long>(flat.cyclesRun));
            for (std::size_t i = 0; i < speedups.size(); ++i) {
                const SpeedupRow &row = speedups[i];
                std::fprintf(
                    json,
                    "    {\"shards\": %zu, \"wall_ms\": %.2f, "
                    "\"speedup\": %.3f, \"identical\": %s}%s\n",
                    row.shards, row.wallMs, row.speedup,
                    row.identical ? "true" : "false",
                    i + 1 < speedups.size() ? "," : "");
            }
            std::fprintf(json, "  ]},\n  \"scale\": [\n");
            for (std::size_t i = 0; i < scale.size(); ++i) {
                const ScaleRow &row = scale[i];
                std::fprintf(
                    json,
                    "    {\"hosts\": %zu, \"switches\": %zu, "
                    "\"cycles\": %llu, \"wall_ms\": %.2f, "
                    "\"shard_wall_max_ms\": %.2f, "
                    "\"shard_wall_min_ms\": %.2f, "
                    "\"boundary_sends\": %llu, "
                    "\"flits_in\": %llu, "
                    "\"topology_build_ms\": %.2f, "
                    "\"peak_rss_mb\": %.1f}%s\n",
                    row.hosts, row.switches,
                    static_cast<unsigned long long>(row.cycles),
                    row.wallMs, row.maxShardWallMs,
                    row.minShardWallMs,
                    static_cast<unsigned long long>(
                        row.boundarySends),
                    static_cast<unsigned long long>(row.flitsIn),
                    row.topologyBuildMs, row.peakRssMb,
                    i + 1 < scale.size() ? "," : "");
            }
            std::fprintf(json, "  ]\n}\n");
            std::fclose(json);
            std::printf("# wrote %s\n", out.c_str());
        } else {
            warn("cannot write %s", out.c_str());
            failed = true;
        }
    }

    if (report) {
        ReportWriter writer(stderr, "extreme_scale");
        writer.header(scale.size() + 1, static_cast<int>(hwThreads),
                      0, false);
        writer.metrics(lastSharded.metrics);
        writer.shards(lastSharded);
        writer.status(failed ? "fatal" : "ok");
    }
    return check && failed ? 1 : 0;
}
