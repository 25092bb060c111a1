/**
 * @file
 * Experiment runner: warmup / measurement / drain phases, saturation
 * detection, and load sweeps — the harness behind every figure.
 */

#ifndef MDW_CORE_EXPERIMENT_HH
#define MDW_CORE_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "core/network.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "workload/traffic.hh"

namespace mdw {

/** Phase lengths and safety limits of one simulation run. */
struct ExperimentParams
{
    Cycle warmup = 20000;
    Cycle measure = 50000;
    /** Extra cycles allowed for measured messages to drain. */
    Cycle drainLimit = 300000;
    /** Deadlock watchdog threshold (0 disables). */
    Cycle watchdogQuiet = 100000;
    /**
     * Delivered/expected ratio below which a run is "saturated".
     * Finite windows lose ~10% to pipeline-fill boundary effects, so
     * the default is deliberately below that.
     */
    double saturationRatio = 0.85;
};

/**
 * Everything a run measures.
 *
 * Run identity and pass/fail verdicts are plain fields; every
 * numeric measurement lives in `metrics`, a MetricsSnapshot of the
 * network's registry (plus derived "experiment.*" entries) captured
 * before the quiescence settle. The former scalar fields remain
 * available as thin accessors over the snapshot, so call sites read
 * `r.deliveredLoad()` where they used to read `r.deliveredLoad`.
 */
struct ExperimentResult
{
    double offeredLoad = 0.0; ///< payload flits/node/cycle, at source
    double expectedDelivered = 0.0; ///< offered x fan-out multiplier

    bool saturated = false;
    bool drained = true;
    bool deadlocked = false;
    /** Post-drain invariant: every buffer empty, credits home. */
    bool quiescent = true;
    Cycle cyclesRun = 0;

    /**
     * Every registered metric of the run, keyed by hierarchical name
     * ("tracker.latency.unicast", "switch.3.port.2.tx_flits", ...),
     * including the full latency samplers — sweep aggregates merge
     * these snapshots in submission order instead of re-deriving
     * moments from scalar summaries.
     */
    MetricsSnapshot metrics;

    /**
     * Worm-lifecycle trace of the run; null unless the network was
     * configured with telemetry.trace. Shared (immutable) so copying
     * results in sweeps stays cheap.
     */
    std::shared_ptr<const WormTrace> trace;

    /**
     * Sharded-scheduler diagnostics (empty / zero when the run was
     * flat): parallel shards in use, per-bucket execution statistics
     * (entry [effectiveShards] is the serial bucket), and each
     * shard's switch-counter rollup. Deliberately NOT compared by
     * identicalResults — the whole point of sharding is that the
     * results are identical while these wall-clock numbers differ.
     */
    std::size_t effectiveShards = 0;
    std::vector<ShardStat> shardStats;
    std::vector<NetworkTotals> shardTotals;

    // --- Accessors: the pre-snapshot scalar API ---------------------

    /** Payload flits/node/cycle delivered in the window. */
    double deliveredLoad() const
    {
        return metrics.gauge("experiment.delivered_load");
    }

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

    double unicastAvg() const { return unicastLatency().mean(); }
    double unicastP95() const
    {
        return metrics.gauge("experiment.latency.unicast.p95");
    }
    double unicastCount() const
    {
        return static_cast<double>(unicastLatency().count());
    }
    double mcastLastAvg() const { return mcastLastLatency().mean(); }
    double mcastLastP95() const
    {
        return metrics.gauge("experiment.latency.mcast_last.p95");
    }
    double mcastLastP99() const
    {
        return metrics.gauge("experiment.latency.mcast_last.p99");
    }
    double mcastAvgAvg() const { return mcastAvgLatency().mean(); }
    double mcastCount() const
    {
        return static_cast<double>(mcastLastLatency().count());
    }

    /** Mean utilization of switch output links in the window. */
    double meanLinkUtil() const
    {
        return metrics.gauge("experiment.link_util.mean");
    }
    /** Utilization of the busiest switch output link. */
    double maxLinkUtil() const
    {
        return metrics.gauge("experiment.link_util.max");
    }

    std::uint64_t reservationStallCycles() const
    {
        return metrics.counter("network.reservation_stall_cycles");
    }

    /** Fault-recovery activity (all zero on a fault-free run). */
    std::size_t faultsApplied() const
    {
        return static_cast<std::size_t>(
            metrics.counter("fault.applied"));
    }
    std::uint64_t retransmits() const
    {
        return metrics.counter("host.retransmits");
    }
    std::uint64_t duplicateDeliveries() const
    {
        return metrics.counter("tracker.duplicate_deliveries");
    }
    std::uint64_t partialCompleted() const
    {
        return metrics.counter("tracker.partial_completed");
    }
    std::uint64_t unreachableDests() const
    {
        return metrics.counter("tracker.unreachable_dests");
    }

    // --- Link-level integrity (all zero without transient faults) ---
    std::uint64_t linkNaks() const
    {
        return metrics.counter("network.link.naks");
    }
    /** Deliveries discarded by the end-to-end payload checksum. */
    std::uint64_t csumFails() const
    {
        return metrics.counter("host.csum_fails");
    }
};

/**
 * Exact (bitwise, not tolerance-based) equality of two results —
 * the property the deterministic sweep runner guarantees across
 * thread counts.
 */
bool identicalResults(const ExperimentResult &a,
                      const ExperimentResult &b);

/** One simulation run: build, warm up, measure, drain, report. */
class Experiment
{
  public:
    Experiment(NetworkConfig network, WorkloadParams traffic,
               ExperimentParams params);

    /** Execute the run and return its measurements. */
    ExperimentResult run();

    /** Fan-out multiplier of the configured traffic pattern. */
    double deliveryMultiplier() const;

  private:
    /**
     * Closed-loop run (workload.kind = collective or trace): no
     * warmup/measure split -- the workload runs to exhaustion (or
     * drainLimit, whichever first) with the measurement window open
     * for the whole run, and the snapshot gains the workload.*
     * accounting counters (posted == completed + partial on any
     * drained run).
     */
    ExperimentResult runClosedLoop(Network &net);

    NetworkConfig network_;
    WorkloadParams traffic_;
    ExperimentParams params_;
};

/**
 * Run the same configuration across several offered loads, optionally
 * spreading the runs across @p threads worker threads (see
 * core/sweep.hh; 1 = serial, 0 = one per hardware thread). Results
 * appear in the order of @p loads regardless of thread count, and are
 * identical to a serial sweep.
 */
std::vector<ExperimentResult> sweepLoads(const NetworkConfig &network,
                                         const WorkloadParams &traffic,
                                         const ExperimentParams &params,
                                         const std::vector<double> &loads,
                                         int threads = 1);

/** Fixed-width header line matching formatResultRow(). */
std::string resultHeader();

/** One row of measurements for table output. */
std::string formatResultRow(const std::string &label,
                            const ExperimentResult &result);

} // namespace mdw

#endif // MDW_CORE_EXPERIMENT_HH
