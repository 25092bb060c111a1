/**
 * @file
 * Deterministic parallel sweep runner.
 *
 * Every figure and ablation in the reproduction is a sweep: the same
 * experiment repeated over a grid of load points, schemes, or sizes.
 * The runs are independent (each builds its own Network, Simulator,
 * and trackers), so they can execute on a pool of worker threads —
 * but a parallel sweep is only trustworthy if it is *bit-identical*
 * to the serial one. The runner guarantees that by construction:
 *
 *  - each run's RNG streams are derived from (baseSeed, run index)
 *    via Rng::streamSeed, never from thread identity or timing;
 *  - each run writes its result into its own pre-allocated slot, so
 *    results come back in submission order;
 *  - cross-run aggregates are built after the pool joins, merging
 *    per-run Samplers in submission order via Sampler::merge.
 *
 * The accompanying SweepReport records per-run wall time, effective
 * seeds, and the saturation flag, making every sweep auditable.
 */

#ifndef MDW_CORE_SWEEP_HH
#define MDW_CORE_SWEEP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace mdw {

/** One queued simulation run: a label plus its three config blocks. */
struct SweepRun
{
    std::string label;
    NetworkConfig network;
    WorkloadParams traffic;
    ExperimentParams params;
};

/** Audit record of one executed run. */
struct SweepRunRecord
{
    std::size_t index = 0;
    std::string label;
    /** Seeds the run actually used (derived or as-submitted). */
    std::uint64_t networkSeed = 0;
    std::uint64_t trafficSeed = 0;
    /** Wall-clock duration of the run (informational only). */
    double wallMs = 0.0;
    bool saturated = false;
    bool drained = true;
    bool deadlocked = false;
};

/** How a sweep executed, plus deterministic cross-run aggregates. */
struct SweepReport
{
    /** Worker threads actually used (after resolving threads=0). */
    int threads = 1;
    std::uint64_t baseSeed = 0;
    bool seedsDerived = false;
    /** Wall-clock duration of the whole sweep. */
    double wallMs = 0.0;
    std::vector<SweepRunRecord> runs;

    /**
     * All runs' metric snapshots merged in submission order — the
     * same numbers at any thread count. Counters sum, samplers merge
     * (Sampler::merge), per-run gauges collapse into samplers.
     */
    MetricsSnapshot metrics;

    /** Merged latency samplers (from `metrics`). */
    const Sampler &unicastLatency() const
    {
        return metrics.sampler("tracker.latency.unicast");
    }
    const Sampler &mcastLastLatency() const
    {
        return metrics.sampler("tracker.latency.mcast_last");
    }
    const Sampler &mcastAvgLatency() const
    {
        return metrics.sampler("tracker.latency.mcast_avg");
    }

    std::size_t saturatedCount() const;

    /** Multi-line human-readable audit trail. */
    std::string summary() const;
};

/** Execution policy of a SweepRunner. */
struct SweepOptions
{
    /**
     * Worker threads: 1 = serial (runs inline, no threads spawned),
     * 0 = one per hardware thread, N = exactly N.
     */
    int threads = 1;
    /**
     * When deriveSeeds is set, run i's network and traffic seeds are
     * replaced by Rng::streamSeed(baseSeed, 2i) and
     * Rng::streamSeed(baseSeed, 2i + 1), giving every run an
     * isolated, reproducible stream from a single base seed.
     * Otherwise the seeds in the submitted configs are used as-is.
     */
    std::uint64_t baseSeed = 0;
    bool deriveSeeds = false;
};

/**
 * Collects independent Experiment runs and executes them across a
 * worker pool. Usage: add() every run of the sweep, call run() once,
 * then read results() (submission order) and report().
 */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepOptions options = {});

    /** Queue a run; returns its index (= position in results()). */
    std::size_t add(SweepRun run);
    std::size_t add(std::string label, const NetworkConfig &network,
                    const WorkloadParams &traffic,
                    const ExperimentParams &params);

    std::size_t size() const { return runs_.size(); }

    /**
     * Execute all queued runs and return the results in submission
     * order. May be called only once.
     */
    const std::vector<ExperimentResult> &run();

    /** Results in submission order (empty before run()). */
    const std::vector<ExperimentResult> &results() const
    {
        return results_;
    }

    const SweepReport &report() const { return report_; }

  private:
    void executeOne(std::size_t index);

    SweepOptions options_;
    std::vector<SweepRun> runs_;
    std::vector<ExperimentResult> results_;
    SweepReport report_;
    bool executed_ = false;
};

} // namespace mdw

#endif // MDW_CORE_SWEEP_HH
