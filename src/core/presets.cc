#include "core/presets.hh"

#include <algorithm>
#include <set>

#include "sim/logging.hh"

namespace mdw {

namespace {

/**
 * Read an integer key and clamp it into [lo, hi], warning once per
 * key per process when the configured value is out of range.
 */
int
clampedInt(const Config &config, const char *key, int dflt, int lo,
           int hi)
{
    const std::int64_t raw = config.getInt(key, dflt);
    const std::int64_t clamped =
        std::min<std::int64_t>(std::max<std::int64_t>(raw, lo), hi);
    if (clamped != raw) {
        static std::set<std::string> warned;
        if (warned.insert(key).second)
            warn("config key '%s' value %lld out of range [%d, %d]; "
                 "clamping to %lld",
                 key, static_cast<long long>(raw), lo, hi,
                 static_cast<long long>(clamped));
    }
    return static_cast<int>(clamped);
}

} // namespace

const char *
toString(Scheme scheme)
{
    switch (scheme) {
      case Scheme::CbHw:
        return "cb-hw";
      case Scheme::IbHw:
        return "ib-hw";
      case Scheme::SwUmin:
        return "sw-umin";
    }
    return "?";
}

NetworkConfig
defaultNetwork()
{
    NetworkConfig config;
    config.topo = TopologyKind::FatTree;
    config.fatTreeK = 4;
    config.fatTreeN = 3; // 64 hosts
    config.arch = SwitchArch::CentralBuffer;
    config.cb = CbParams{};
    config.ib = IbParams{};
    config.sw.variant = RoutingVariant::ReplicateAfterLca;
    config.sw.upPolicy = UpPortPolicy::Adaptive;
    config.nic = NicParams{};
    config.maxPayloadFlits = 256;
    config.linkDelay = 1;
    config.seed = 1;
    return config;
}

NetworkConfig
networkFor(Scheme scheme)
{
    NetworkConfig config = defaultNetwork();
    switch (scheme) {
      case Scheme::CbHw:
        config.arch = SwitchArch::CentralBuffer;
        config.nic.scheme = McastScheme::Hardware;
        break;
      case Scheme::IbHw:
        config.arch = SwitchArch::InputBuffer;
        config.nic.scheme = McastScheme::Hardware;
        break;
      case Scheme::SwUmin:
        config.arch = SwitchArch::CentralBuffer;
        config.nic.scheme = McastScheme::Software;
        break;
    }
    return config;
}

WorkloadParams
defaultTraffic()
{
    WorkloadParams traffic;
    traffic.pattern = TrafficPattern::MultipleMulticast;
    traffic.load = 0.05;
    traffic.payloadFlits = 64;
    traffic.mcastDegree = 8;
    traffic.mcastFraction = 0.1;
    traffic.seed = 42;
    return traffic;
}

ExperimentParams
defaultExperiment()
{
    return ExperimentParams{};
}

void
applyOverrides(const Config &config, NetworkConfig &network,
               WorkloadParams &traffic, ExperimentParams &params)
{
    // Topology.
    const std::string topo =
        config.getString("topo", toString(network.topo));
    if (topo == "fat-tree") {
        network.topo = TopologyKind::FatTree;
    } else if (topo == "irregular") {
        network.topo = TopologyKind::Irregular;
    } else if (topo == "uni-min") {
        network.topo = TopologyKind::UniMin;
    } else {
        fatal("unknown topo '%s'", topo.c_str());
    }
    network.fatTreeK =
        static_cast<int>(config.getInt("k", network.fatTreeK));
    network.fatTreeN =
        static_cast<int>(config.getInt("n", network.fatTreeN));
    network.irregular.switches = static_cast<int>(
        config.getInt("irr.switches", network.irregular.switches));
    network.irregular.radix = static_cast<int>(
        config.getInt("irr.radix", network.irregular.radix));
    network.irregular.hosts = static_cast<int>(
        config.getInt("irr.hosts", network.irregular.hosts));
    network.irregular.extraLinks = static_cast<int>(
        config.getInt("irr.extraLinks", network.irregular.extraLinks));

    // Switch architecture.
    const std::string arch =
        config.getString("arch", toString(network.arch));
    if (arch == "central-buffer" || arch == "cb") {
        network.arch = SwitchArch::CentralBuffer;
    } else if (arch == "input-buffer" || arch == "ib") {
        network.arch = SwitchArch::InputBuffer;
    } else {
        fatal("unknown arch '%s'", arch.c_str());
    }
    network.cb.cqChunks = static_cast<int>(
        config.getInt("cb.chunks", network.cb.cqChunks));
    network.cb.chunkFlits = static_cast<int>(
        config.getInt("cb.chunkFlits", network.cb.chunkFlits));
    network.cb.inputFifoFlits = static_cast<int>(
        config.getInt("cb.inputFifo", network.cb.inputFifoFlits));
    network.cb.outputFifoFlits = static_cast<int>(
        config.getInt("cb.outputFifo", network.cb.outputFifoFlits));
    network.ib.bufferFlits = static_cast<int>(
        config.getInt("ib.buffer", network.ib.bufferFlits));

    // Virtual lanes (shared by both architectures; the network
    // builder mirrors the count onto the NICs).
    network.sw.lanes = clampedInt(config, "switch.lanes",
                                  network.sw.lanes, 1, kMaxLanes);
    const std::string laneAlloc = config.getString(
        "switch.laneAlloc", toString(network.sw.laneAlloc));
    if (laneAlloc == "static" || laneAlloc == "static-class") {
        network.sw.laneAlloc = LaneAlloc::StaticClass;
    } else if (laneAlloc == "adaptive") {
        network.sw.laneAlloc = LaneAlloc::Adaptive;
    } else {
        fatal("unknown lane allocation '%s'", laneAlloc.c_str());
    }

    const std::string variant = config.getString(
        "routing", toString(network.sw.variant));
    if (variant == "replicate-after-lca") {
        network.sw.variant = RoutingVariant::ReplicateAfterLca;
    } else if (variant == "replicate-on-up-path") {
        network.sw.variant = RoutingVariant::ReplicateOnUpPath;
    } else {
        fatal("unknown routing variant '%s'", variant.c_str());
    }
    const std::string replication = config.getString(
        "replication", toString(network.sw.replication));
    if (replication == "asynchronous" || replication == "async") {
        network.sw.replication = ReplicationMode::Asynchronous;
    } else if (replication == "synchronous" || replication == "sync") {
        network.sw.replication = ReplicationMode::Synchronous;
    } else {
        fatal("unknown replication mode '%s'", replication.c_str());
    }
    const std::string up =
        config.getString("upPolicy", toString(network.sw.upPolicy));
    if (up == "adaptive") {
        network.sw.upPolicy = UpPortPolicy::Adaptive;
    } else if (up == "deterministic") {
        network.sw.upPolicy = UpPortPolicy::Deterministic;
    } else {
        fatal("unknown up-port policy '%s'", up.c_str());
    }

    // NIC / schemes.
    const std::string scheme =
        config.getString("scheme", toString(network.nic.scheme));
    if (scheme == "hardware" || scheme == "hw") {
        network.nic.scheme = McastScheme::Hardware;
    } else if (scheme == "software" || scheme == "sw") {
        network.nic.scheme = McastScheme::Software;
    } else {
        fatal("unknown multicast scheme '%s'", scheme.c_str());
    }
    const std::string encoding =
        config.getString("encoding", toString(network.nic.encoding));
    if (encoding == "bit-string") {
        network.nic.encoding = McastEncoding::BitString;
    } else if (encoding == "multiport") {
        network.nic.encoding = McastEncoding::Multiport;
    } else {
        fatal("unknown encoding '%s'", encoding.c_str());
    }
    network.nic.sendOverhead =
        config.getU64("nic.sendOverhead", network.nic.sendOverhead);
    network.nic.recvOverhead =
        config.getU64("nic.recvOverhead", network.nic.recvOverhead);
    network.nic.rxWindowFlits = static_cast<int>(
        config.getInt("nic.rxWindow", network.nic.rxWindowFlits));
    network.nic.swListOverhead =
        config.getBool("nic.swListOverhead", network.nic.swListOverhead);

    network.maxPayloadFlits = static_cast<int>(
        config.getInt("maxPayload", network.maxPayloadFlits));
    network.linkDelay = config.getU64("linkDelay", network.linkDelay);
    network.seed = config.getU64("seed", network.seed);

    // Scheduling mode (results are bit-identical either way; 0 is the
    // cycle-accurate oracle for debugging).
    network.fastPath = config.getBool("sim.fastPath", network.fastPath);
    // Sharded intra-run parallelism (also bit-identical; see
    // Network::setupSharding for the serial-only vetoes).
    network.shards = static_cast<std::size_t>(
        config.getU64("sim.shards", network.shards));
    network.shardThreads = static_cast<unsigned>(config.getU64(
        "sim.shardThreads", network.shardThreads));

    // Workload.
    const std::string kind =
        config.getString("workload.kind", toString(traffic.kind));
    if (kind == "synthetic") {
        traffic.kind = WorkloadKind::Synthetic;
    } else if (kind == "collective") {
        traffic.kind = WorkloadKind::Collective;
    } else if (kind == "trace") {
        traffic.kind = WorkloadKind::Trace;
    } else {
        fatal("unknown workload kind '%s'", kind.c_str());
    }
    const std::string pattern =
        config.getString("workload.pattern", toString(traffic.pattern));
    if (pattern == "uniform-unicast") {
        traffic.pattern = TrafficPattern::UniformUnicast;
    } else if (pattern == "multiple-multicast") {
        traffic.pattern = TrafficPattern::MultipleMulticast;
    } else if (pattern == "bimodal") {
        traffic.pattern = TrafficPattern::Bimodal;
    } else if (pattern == "hot-spot") {
        traffic.pattern = TrafficPattern::HotSpot;
    } else {
        fatal("unknown traffic pattern '%s'", pattern.c_str());
    }
    traffic.load = config.getDouble("workload.load", traffic.load);
    traffic.payloadFlits = static_cast<int>(
        config.getInt("workload.payload", traffic.payloadFlits));
    traffic.mcastDegree = static_cast<int>(
        config.getInt("workload.degree", traffic.mcastDegree));
    traffic.mcastFraction =
        config.getDouble("workload.mcastFraction", traffic.mcastFraction);
    traffic.hotFraction =
        config.getDouble("workload.hotFraction", traffic.hotFraction);
    traffic.hotNode = static_cast<NodeId>(
        config.getInt("workload.hotNode", traffic.hotNode));
    traffic.seed = config.getU64("workload.seed", traffic.seed);
    // Lane class stamped on generated multicasts (bimodal isolation).
    traffic.mcastClass =
        clampedInt(config, "workload.mcastClass", traffic.mcastClass,
                   0, kLaneClasses - 1);

    // Closed-loop knobs (workload.kind = collective | trace).
    const std::string op = config.getString("workload.collective",
                                            toString(traffic.collective));
    if (op == "barrier") {
        traffic.collective = CollectiveOp::Barrier;
    } else if (op == "allreduce") {
        traffic.collective = CollectiveOp::Allreduce;
    } else if (op == "invalidate") {
        traffic.collective = CollectiveOp::Invalidate;
    } else {
        fatal("unknown collective op '%s'", op.c_str());
    }
    traffic.rounds = static_cast<int>(
        config.getInt("workload.rounds", traffic.rounds));
    traffic.groups = static_cast<int>(
        config.getInt("workload.groups", traffic.groups));
    traffic.groupSize = static_cast<int>(
        config.getInt("workload.groupSize", traffic.groupSize));
    traffic.think = config.getU64("workload.think", traffic.think);
    traffic.tracePath =
        config.getString("workload.trace", traffic.tracePath);

    // Faults and recovery.
    network.faultSpec.links = static_cast<int>(
        config.getInt("fault.links", network.faultSpec.links));
    network.faultSpec.switches = static_cast<int>(
        config.getInt("fault.switches", network.faultSpec.switches));
    network.faultSpec.start =
        config.getU64("fault.start", network.faultSpec.start);
    network.faultSpec.end =
        config.getU64("fault.end", network.faultSpec.end);
    network.faultSpec.seed =
        config.getU64("fault.seed", network.faultSpec.seed);
    // Transient regime: link bit-error rate, undetected-error
    // fraction, and link-flap windows.
    network.faultSpec.ber =
        config.getDouble("fault.ber", network.faultSpec.ber);
    network.faultSpec.residual =
        config.getDouble("fault.residual", network.faultSpec.residual);
    network.faultSpec.flaps = static_cast<int>(
        config.getInt("fault.flaps", network.faultSpec.flaps));
    network.faultSpec.flapMin =
        config.getU64("fault.flapMin", network.faultSpec.flapMin);
    network.faultSpec.flapMax =
        config.getU64("fault.flapMax", network.faultSpec.flapMax);
    network.link.retryLimit = static_cast<int>(
        config.getInt("link.retryLimit", network.link.retryLimit));
    network.link.replayBufferFlits = static_cast<int>(config.getInt(
        "link.replayBuffer", network.link.replayBufferFlits));
    network.nic.retransmitTimeout = config.getU64(
        "nic.retransmitTimeout", network.nic.retransmitTimeout);
    network.nic.maxRetransmits = static_cast<int>(config.getInt(
        "nic.maxRetransmits", network.nic.maxRetransmits));

    // Telemetry (metrics are always on; tracing is opt-in).
    network.telemetry.trace =
        config.getBool("telemetry.trace", network.telemetry.trace);
    network.telemetry.traceCapacity = static_cast<std::size_t>(
        config.getInt("telemetry.traceCapacity",
                      static_cast<std::int64_t>(
                          network.telemetry.traceCapacity)));

    // Experiment phases.
    params.warmup = config.getU64("warmup", params.warmup);
    params.measure = config.getU64("measure", params.measure);
    params.drainLimit = config.getU64("drainLimit", params.drainLimit);
    params.watchdogQuiet =
        config.getU64("watchdog", params.watchdogQuiet);
    params.saturationRatio =
        config.getDouble("satRatio", params.saturationRatio);

    const auto unread = config.unreadKeys();
    if (!unread.empty()) {
        std::string joined;
        for (const auto &key : unread)
            joined += key + " ";
        fatal("unknown config keys: %s", joined.c_str());
    }
}

} // namespace mdw
