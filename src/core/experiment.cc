#include "core/experiment.hh"

#include <algorithm>
#include <cstdio>

#include "core/sweep.hh"
#include "sim/logging.hh"
#include "workload/kernels.hh"
#include "workload/trace.hh"

namespace mdw {

namespace {

/**
 * Start the result of a finished run: the metrics snapshot plus the
 * experiment's own figures -- @p deliveredLoad, the end backlog, the
 * latency percentiles, and link utilization from @p txFlits (per-port
 * flits sent during a window of @p window cycles). Every measurement
 * is captured *before* finishResult()'s quiescence settle advances the
 * clock: the snapshot reads live gauges (time averages, event totals)
 * whose values depend on `now`.
 */
void
captureMetrics(Network &net, ExperimentResult &result,
               double deliveredLoad,
               const std::vector<std::uint64_t> &txFlits, Cycle window)
{
    // The "experiment." names sort before every component's, and an
    // insertion into the sorted snapshot moves every entry after it:
    // collect them apart and merge them in with one pass.
    MetricsSnapshot own;
    own.setGauge("experiment.delivered_load", deliveredLoad);
    own.setCounter("experiment.end_backlog_packets",
                   net.totalTxBacklog());

    const McastTracker &tracker = net.tracker();
    own.setGauge("experiment.latency.unicast.p95",
                 tracker.unicastHist().percentile(0.95));
    own.setGauge("experiment.latency.unicast.p99",
                 tracker.unicastHist().percentile(0.99));
    own.setGauge("experiment.latency.unicast.p999",
                 tracker.unicastHist().percentile(0.999));
    own.setGauge("experiment.latency.mcast_last.p95",
                 tracker.mcastLastHist().percentile(0.95));
    own.setGauge("experiment.latency.mcast_last.p99",
                 tracker.mcastLastHist().percentile(0.99));
    own.setGauge("experiment.latency.mcast_last.p999",
                 tracker.mcastLastHist().percentile(0.999));

    double mean_util = 0.0, peak_util = 0.0;
    if (!txFlits.empty() && window > 0) {
        double sum = 0.0;
        for (const std::uint64_t flits : txFlits) {
            const double util = static_cast<double>(flits) /
                                static_cast<double>(window);
            sum += util;
            peak_util = std::max(peak_util, util);
        }
        mean_util = sum / static_cast<double>(txFlits.size());
    }
    own.setGauge("experiment.link_util.mean", mean_util);
    own.setGauge("experiment.link_util.max", peak_util);

    result.metrics = net.metricsSnapshot();
    result.metrics.merge(own);
}

/**
 * Finish the result: the trace snapshot, the quiescence audit and the
 * sharded scheduler's diagnostics.
 */
void
finishResult(Network &net, ExperimentResult &result)
{
    if (net.telemetry().tracer())
        result.trace =
            std::make_shared<const WormTrace>(net.traceSnapshot());

    // Quiescence audit, *after* every measurement is captured: the
    // settle cycles it may add must not perturb any statistic (a
    // fault-free run must stay bit-identical with this in place).
    if (result.drained && !result.deadlocked) {
        // A drained network can still have credits on the wire at the
        // cycle idleness was detected; give them a moment to land.
        net.sim().runUntil(
            [&net] { return net.checkQuiescent(nullptr); }, 4096);
        std::string why;
        result.quiescent = net.checkQuiescent(&why);
        if (!result.quiescent)
            warn("network not quiescent after drain: %s", why.c_str());
    } else {
        result.quiescent = false;
    }

    result.effectiveShards = net.effectiveShards();
    if (result.effectiveShards == 0)
        return;
    result.shardStats = net.shardStats();
    for (std::uint32_t s = 0; s <= result.effectiveShards; ++s)
        result.shardTotals.push_back(net.totalsForShard(s));
}

} // namespace

Experiment::Experiment(NetworkConfig network, WorkloadParams traffic,
                       ExperimentParams params)
    : network_(std::move(network)), traffic_(traffic), params_(params)
{
}

double
Experiment::deliveryMultiplier() const
{
    switch (traffic_.pattern) {
      case TrafficPattern::UniformUnicast:
      case TrafficPattern::HotSpot:
        return 1.0;
      case TrafficPattern::MultipleMulticast:
        return static_cast<double>(traffic_.mcastDegree);
      case TrafficPattern::Bimodal:
        return (1.0 - traffic_.mcastFraction) +
               traffic_.mcastFraction *
                   static_cast<double>(traffic_.mcastDegree);
    }
    return 1.0;
}

ExperimentResult
Experiment::run()
{
    Network net(network_);

    if (traffic_.kind != WorkloadKind::Synthetic)
        return runClosedLoop(net);

    WorkloadParams traffic = traffic_;
    traffic.stopCycle = params_.warmup + params_.measure;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    net.tracker().setWindow(params_.warmup,
                            params_.warmup + params_.measure);

    ExperimentResult result;
    result.offeredLoad = traffic_.load;
    result.expectedDelivered = traffic_.load * deliveryMultiplier();

    if (params_.watchdogQuiet > 0)
        net.armWatchdog(params_.watchdogQuiet);

    net.sim().run(params_.warmup);
    const std::vector<std::uint64_t> tx_before = net.portTxSnapshot();
    net.sim().run(params_.measure);
    std::vector<std::uint64_t> tx_window = net.portTxSnapshot();
    for (std::size_t i = 0; i < tx_window.size(); ++i)
        tx_window[i] -= tx_before[i];

    // Drain: generation has stopped; let in-flight traffic land.
    result.drained = net.sim().runUntil(
        [&net] { return net.idle(); }, params_.drainLimit);

    result.deadlocked = net.sim().deadlockDetected();
    result.cyclesRun = net.sim().now();

    const double node_cycles = static_cast<double>(net.numHosts()) *
                               static_cast<double>(params_.measure);
    const double delivered_load =
        static_cast<double>(net.tracker().windowDeliveredFlits()) /
        node_cycles;
    captureMetrics(net, result, delivered_load, tx_window,
                   params_.measure);
    result.saturated =
        result.deadlocked || !result.drained ||
        delivered_load <
            params_.saturationRatio * result.expectedDelivered;

    finishResult(net, result);
    return result;
}

ExperimentResult
Experiment::runClosedLoop(Network &net)
{
    std::unique_ptr<Workload> workload;
    CollectiveKernelWorkload *kernels = nullptr;
    switch (traffic_.kind) {
      case WorkloadKind::Collective: {
        auto k = std::make_unique<CollectiveKernelWorkload>(
            net.numHosts(), traffic_);
        kernels = k.get();
        workload = std::move(k);
        break;
      }
      case WorkloadKind::Trace: {
        if (traffic_.tracePath.empty())
            fatal("workload.kind=trace needs workload.trace=<path>");
        workload = std::make_unique<TraceTraffic>(
            TraceTraffic::fromFile(traffic_.tracePath,
                                   net.numHosts()));
        break;
      }
      case WorkloadKind::Synthetic:
        MDW_ASSERT(false, "synthetic workloads use the open-loop run");
    }
    net.attachWorkload(workload.get());
    // No warmup/measure split: a closed-loop run is bounded by its
    // own dependency structure, so the whole run is the measurement.
    net.tracker().setWindow(0, kNoCycle);

    ExperimentResult result;
    result.offeredLoad = 0.0;
    result.expectedDelivered = 0.0;

    if (params_.watchdogQuiet > 0)
        net.armWatchdog(params_.watchdogQuiet);

    Workload *w = workload.get();
    result.drained = net.sim().runUntil(
        [&net, w] { return w->exhausted() && net.idle(); },
        params_.drainLimit);
    result.deadlocked = net.sim().deadlockDetected();
    result.cyclesRun = net.sim().now();

    const McastTracker &tracker = net.tracker();
    const double node_cycles =
        static_cast<double>(net.numHosts()) *
        static_cast<double>(result.cyclesRun);
    // Whole-run link utilization (no measurement sub-window).
    captureMetrics(
        net, result,
        node_cycles > 0.0
            ? static_cast<double>(tracker.windowDeliveredFlits()) /
                  node_cycles
            : 0.0,
        net.portTxSnapshot(), result.cyclesRun);
    result.saturated = result.deadlocked || !result.drained;

    // Closed-loop accounting: on a drained run every injected message
    // retired (posted == completed + partial), which validate_report
    // cross-checks from the report stream.
    result.metrics.setCounter(
        "workload.posted",
        result.metrics.sumCounters("messages_posted"));
    result.metrics.setCounter("workload.completed",
                              tracker.totalCompleted());
    result.metrics.setCounter("workload.partial",
                              tracker.partialCompleted());
    if (kernels != nullptr) {
        result.metrics.setSampler("workload.round_cycles",
                                  kernels->roundCycles());
        result.metrics.setCounter("workload.rounds",
                                  kernels->roundsCompleted());
    }

    finishResult(net, result);
    // The workload dies with this scope; the network must not retain
    // hooks into it.
    net.detachWorkload();
    return result;
}

bool
identicalResults(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.offeredLoad == b.offeredLoad &&
           a.expectedDelivered == b.expectedDelivered &&
           a.saturated == b.saturated && a.drained == b.drained &&
           a.deadlocked == b.deadlocked && a.cyclesRun == b.cyclesRun &&
           a.quiescent == b.quiescent &&
           a.metrics.identical(b.metrics);
}

std::vector<ExperimentResult>
sweepLoads(const NetworkConfig &network, const WorkloadParams &traffic,
           const ExperimentParams &params,
           const std::vector<double> &loads, int threads)
{
    SweepOptions options;
    options.threads = threads;
    SweepRunner runner(options);
    for (double load : loads) {
        WorkloadParams t = traffic;
        t.load = load;
        char label[32];
        std::snprintf(label, sizeof(label), "load=%.4f", load);
        runner.add(label, network, t, params);
    }
    return runner.run();
}

std::string
resultHeader()
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-22s %8s %8s %9s %9s %9s %6s",
                  "config", "offered", "deliv", "uni-lat", "mc-avg",
                  "mc-last", "sat");
    return buf;
}

std::string
formatResultRow(const std::string &label, const ExperimentResult &r)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "%-22s %8.4f %8.4f %9.1f %9.1f %9.1f %6s",
                  label.c_str(), r.offeredLoad, r.deliveredLoad(),
                  r.unicastAvg(), r.mcastAvgAvg(), r.mcastLastAvg(),
                  r.saturated ? "yes" : "no");
    return buf;
}

} // namespace mdw
