#include "core/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace mdw {

namespace {

using WallClock = std::chrono::steady_clock;

double
msSince(WallClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(WallClock::now() -
                                                     start)
        .count();
}

int
resolveThreads(int requested, std::size_t jobs)
{
    if (requested < 0)
        fatal("sweep thread count must be >= 0 (got %d)", requested);
    std::size_t threads = static_cast<std::size_t>(requested);
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    if (jobs > 0 && threads > jobs)
        threads = jobs;
    if (threads == 0)
        threads = 1;
    return static_cast<int>(threads);
}

} // namespace

std::size_t
SweepReport::saturatedCount() const
{
    std::size_t n = 0;
    for (const SweepRunRecord &record : runs)
        n += record.saturated;
    return n;
}

std::string
SweepReport::summary() const
{
    std::string out;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "# sweep: %zu runs, %d thread(s), %.0f ms wall",
                  runs.size(), threads, wallMs);
    out += buf;
    if (seedsDerived) {
        std::snprintf(buf, sizeof(buf), ", base seed %llu",
                      static_cast<unsigned long long>(baseSeed));
        out += buf;
    }
    std::snprintf(buf, sizeof(buf), ", %zu saturated\n",
                  saturatedCount());
    out += buf;
    std::snprintf(buf, sizeof(buf), "# %4s %-28s %20s %20s %9s %s\n",
                  "run", "label", "net-seed", "traffic-seed",
                  "wall-ms", "flags");
    out += buf;
    for (const SweepRunRecord &record : runs) {
        std::string flags;
        if (record.saturated)
            flags += " sat";
        if (!record.drained)
            flags += " undrained";
        if (record.deadlocked)
            flags += " deadlock";
        if (flags.empty())
            flags = " ok";
        std::snprintf(buf, sizeof(buf),
                      "# %4zu %-28s %20llu %20llu %9.1f%s\n",
                      record.index, record.label.c_str(),
                      static_cast<unsigned long long>(record.networkSeed),
                      static_cast<unsigned long long>(record.trafficSeed),
                      record.wallMs, flags.c_str());
        out += buf;
    }
    return out;
}

SweepRunner::SweepRunner(SweepOptions options)
    : options_(options)
{
}

std::size_t
SweepRunner::add(SweepRun run)
{
    MDW_ASSERT(!executed_, "adding a run to an already-executed sweep");
    const std::size_t index = runs_.size();
    if (options_.deriveSeeds) {
        run.network.seed =
            Rng::streamSeed(options_.baseSeed, 2 * index);
        run.traffic.seed =
            Rng::streamSeed(options_.baseSeed, 2 * index + 1);
    }
    runs_.push_back(std::move(run));
    return index;
}

std::size_t
SweepRunner::add(std::string label, const NetworkConfig &network,
                 const WorkloadParams &traffic,
                 const ExperimentParams &params)
{
    return add(SweepRun{std::move(label), network, traffic, params});
}

void
SweepRunner::executeOne(std::size_t index)
{
    const SweepRun &run = runs_[index];
    const WallClock::time_point start = WallClock::now();
    results_[index] =
        Experiment(run.network, run.traffic, run.params).run();

    SweepRunRecord &record = report_.runs[index];
    record.index = index;
    record.label = run.label;
    record.networkSeed = run.network.seed;
    record.trafficSeed = run.traffic.seed;
    record.wallMs = msSince(start);
    record.saturated = results_[index].saturated;
    record.drained = results_[index].drained;
    record.deadlocked = results_[index].deadlocked;
}

const std::vector<ExperimentResult> &
SweepRunner::run()
{
    MDW_ASSERT(!executed_, "a SweepRunner may only run once");
    executed_ = true;

    const WallClock::time_point start = WallClock::now();
    const int threads = resolveThreads(options_.threads, runs_.size());
    results_.resize(runs_.size());
    report_.runs.resize(runs_.size());
    report_.threads = threads;
    report_.baseSeed = options_.baseSeed;
    report_.seedsDerived = options_.deriveSeeds;

    if (threads <= 1) {
        // Serial fallback: run inline, no threads spawned.
        for (std::size_t i = 0; i < runs_.size(); ++i)
            executeOne(i);
    } else {
        // Inter-run parallelism wins over intra-run parallelism: a
        // run's shard workers would only oversubscribe the cores the
        // pool is already using. Results are unaffected (sharding is
        // bit-identical at any thread count, including 1).
        for (SweepRun &run : runs_)
            run.network.shardThreads = 1;
        // Each worker claims the next unstarted run and writes only
        // its own result/record slot, so thread scheduling can affect
        // neither the numbers nor their order.
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(static_cast<std::size_t>(threads));
        for (int t = 0; t < threads; ++t) {
            pool.emplace_back([this, &next] {
                for (std::size_t i = next.fetch_add(1);
                     i < runs_.size(); i = next.fetch_add(1)) {
                    executeOne(i);
                }
            });
        }
        for (std::thread &worker : pool)
            worker.join();
    }

    // Aggregates are merged serially, in submission order, after the
    // pool has joined — the merge order (and so every aggregate bit)
    // is independent of the thread count.
    for (const ExperimentResult &result : results_)
        report_.metrics.merge(result.metrics);
    report_.wallMs = msSince(start);
    return results_;
}

} // namespace mdw
