/**
 * @file
 * Fast-path wall-clock baseline: times the idle-skipping scheduler
 * (sim.fastPath=1) against the cycle-accurate oracle on three
 * workloads and records the speedups in BENCH_fastpath.json.
 *
 * Cases:
 *   e1_throughput   — E1's 64-host cb-hw multiple-multicast point.
 *   e5_uncontended  — E5's 256-host system at near-zero load; almost
 *                     every component sleeps almost always, so this is
 *                     where the fast path gains most.
 *   contended       — heavy load; the fast path may not help here but
 *                     must not lose either.
 *
 * Every case runs both modes and verifies bit-identical results; with
 * check=1 the binary exits nonzero if results diverge or the fast
 * path is slower than the oracle on an uncontended case, which is the
 * CI perf-smoke gate.
 *
 * Wall times are best-of-reps (default 3): single-shot timings on a
 * shared host swing by tens of percent, and the minimum is the
 * standard low-noise estimator. Both modes get the same treatment, so
 * the comparison stays honest.
 *
 * Usage: micro_fastpath [quick=1] [check=1] [report=1] [reps=3]
 *                       [out=BENCH_fastpath.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/experiment.hh"

namespace {

using namespace mdw;

struct Case
{
    const char *name;
    /** Gated by check=1: the fast path must beat the oracle here. */
    bool uncontended;
    int fatTreeN;
    double load;
};

const Case kCases[] = {
    {"e1_throughput", false, 3, 0.05},
    {"e5_uncontended", true, 4, 0.002},
    {"contended", false, 3, 0.3},
};

struct Row
{
    std::string name;
    std::size_t hosts = 0;
    Cycle cycles = 0;
    double slowMs = 0.0;
    double fastMs = 0.0;
    bool identical = false;
};

double
msSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mdw::bench;

    Config cli;
    const bool quick = parseCli(argc, argv, cli);
    const bool check = cli.getBool("check", false);
    const bool report = cli.getBool("report", false);
    const std::string out =
        cli.getString("out", "BENCH_fastpath.json");
    const unsigned reps = static_cast<unsigned>(
        std::max<std::uint64_t>(1, cli.getU64("reps", 3)));

    banner("fastpath", "idle-skipping scheduler vs cycle oracle",
           "4-ary n-tree, multiple multicast (see case table)");
    std::printf("%16s %6s %8s | %9s %9s %8s %s\n", "case", "hosts",
                "cycles", "slow-ms", "fast-ms", "speedup", "identical");
    std::fflush(stdout);

    bool failed = false;
    std::vector<Row> rows;
    MetricsSnapshot lastFast;
    for (const Case &c : kCases) {
        NetworkConfig network = networkFor(Scheme::CbHw);
        network.fatTreeN = c.fatTreeN;
        WorkloadParams traffic = defaultTraffic();
        traffic.load = c.load;
        ExperimentParams params = benchExperiment(quick);

        Row row;
        row.name = c.name;
        std::size_t hosts = 1;
        for (int i = 0; i < c.fatTreeN; ++i)
            hosts *= static_cast<std::size_t>(network.fatTreeK);
        row.hosts = hosts;

        // Alternate slow/fast reps so machine-load drift hits both
        // modes equally; keep each mode's best time.
        ExperimentResult slow, fast;
        for (unsigned r = 0; r < reps; ++r) {
            network.fastPath = false;
            auto start = std::chrono::steady_clock::now();
            slow = Experiment(network, traffic, params).run();
            const double slowMs = msSince(start);
            if (r == 0 || slowMs < row.slowMs)
                row.slowMs = slowMs;

            network.fastPath = true;
            start = std::chrono::steady_clock::now();
            fast = Experiment(network, traffic, params).run();
            const double fastMs = msSince(start);
            if (r == 0 || fastMs < row.fastMs)
                row.fastMs = fastMs;
        }

        row.cycles = slow.cyclesRun;
        row.identical = identicalResults(slow, fast);
        lastFast = fast.metrics;

        const double speedup =
            row.fastMs > 0.0 ? row.slowMs / row.fastMs : 0.0;
        std::printf("%16s %6zu %8llu | %9.1f %9.1f %7.1fx %s\n",
                    row.name.c_str(), row.hosts,
                    static_cast<unsigned long long>(row.cycles),
                    row.slowMs, row.fastMs, speedup,
                    row.identical ? "yes" : "NO");
        std::fflush(stdout);

        if (!row.identical) {
            std::fprintf(stderr,
                         "# FAIL %s: fast path diverged from oracle\n",
                         row.name.c_str());
            failed = true;
        }
        if (c.uncontended && row.fastMs >= row.slowMs) {
            std::fprintf(
                stderr,
                "# FAIL %s: fast path (%.1f ms) not faster than "
                "oracle (%.1f ms)\n",
                row.name.c_str(), row.fastMs, row.slowMs);
            failed = true;
        }
        rows.push_back(row);
    }

    if (FILE *json = std::fopen(out.c_str(), "w")) {
        std::fprintf(json,
                     "{\n  \"schema\": \"mdw-bench/1\",\n"
                     "  \"bench\": \"fastpath\",\n  \"cases\": [\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &row = rows[i];
            const double speedup =
                row.fastMs > 0.0 ? row.slowMs / row.fastMs : 0.0;
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"hosts\": %zu, "
                "\"cycles\": %llu, \"slow_ms\": %.2f, "
                "\"fast_ms\": %.2f, \"speedup\": %.2f, "
                "\"identical\": %s}%s\n",
                row.name.c_str(), row.hosts,
                static_cast<unsigned long long>(row.cycles),
                row.slowMs, row.fastMs, speedup,
                row.identical ? "true" : "false",
                i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(json, "  ]\n}\n");
        std::fclose(json);
        std::printf("# wrote %s\n", out.c_str());
    } else {
        warn("cannot write %s", out.c_str());
        failed = true;
    }

    if (report) {
        ReportWriter writer(stderr, "fastpath");
        writer.header(std::size(kCases) * 2, 1, 0, false);
        writer.metrics(lastFast);
        writer.status(failed ? "fatal" : "ok");
    }
    return check && failed ? 1 : 0;
}
