/**
 * @file
 * Network: the top-level object users instantiate. Builds a topology,
 * the chosen switch architecture, NICs, and all links; owns the
 * simulator; exposes the application-facing API (post messages, run,
 * inspect statistics).
 */

#ifndef MDW_CORE_NETWORK_HH
#define MDW_CORE_NETWORK_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "host/nic.hh"
#include "message/link_layer.hh"
#include "sim/fault.hh"
#include "sim/system.hh"
#include "sim/telemetry.hh"
#include "switch/central_buffer_switch.hh"
#include "switch/input_buffer_switch.hh"
#include "topology/fat_tree.hh"
#include "topology/irregular.hh"
#include "topology/partition.hh"
#include "topology/uni_min.hh"

namespace mdw {

class ResilienceManager;

/** Which topology family to instantiate. */
enum class TopologyKind { FatTree, Irregular, UniMin };

/** Which switch architecture to instantiate. */
enum class SwitchArch { CentralBuffer, InputBuffer };

const char *toString(TopologyKind kind);
const char *toString(SwitchArch arch);

/** Complete description of a system to simulate. */
struct NetworkConfig
{
    TopologyKind topo = TopologyKind::FatTree;
    /** Fat-tree arity and stages (hosts = k^n). */
    int fatTreeK = 4;
    int fatTreeN = 3;
    IrregularParams irregular;

    SwitchArch arch = SwitchArch::CentralBuffer;
    CbParams cb;
    IbParams ib;
    SwitchParams sw;
    NicParams nic;

    /** Largest message payload the system must carry (flits). */
    int maxPayloadFlits = 256;
    /** Link latency in cycles. */
    Cycle linkDelay = 1;
    std::uint64_t seed = 1;

    /**
     * Idle-skipping scheduler (bit-identical to the cycle-accurate
     * path; see Simulator). On by default; set sim.fastPath=0 (or
     * MDW_FAST_PATH=0 in the environment, which overrides the config)
     * to fall back to the always-stepped oracle.
     */
    bool fastPath = true;

    /**
     * Parallel shards for intra-run simulation (sim.shards=; 1 = off;
     * MDW_SHARDS in the environment overrides). The fabric's switches
     * are partitioned over the shards and stepped concurrently, with
     * cross-shard channels buffered through deterministic boundary
     * mailboxes; results are bit-identical to the flat schedulers for
     * any shard/thread count. Requires the fast path; silently runs
     * flat when a serial-only subsystem (faults, link ARQ, hardware
     * barriers) is configured — see Network::serialReason().
     */
    std::size_t shards = 1;
    /**
     * Worker threads for the parallel phase (sim.shardThreads=;
     * 0 = one per shard up to the hardware's concurrency;
     * MDW_SHARD_THREADS overrides). Thread count never affects
     * results, only wall-clock.
     */
    unsigned shardThreads = 0;

    /** Explicit fault schedule (takes precedence over faultSpec). */
    FaultPlan faultPlan;
    /** Randomized fault schedule, drawn over this network's links and
     *  switches when faultPlan is empty. */
    FaultSpec faultSpec;
    /**
     * Link-level reliability knobs (link.retryLimit= and
     * link.replayBuffer=). The error process itself (ber / residual)
     * comes from the fault plan; these fields of the struct are
     * ignored here. Link layers are only instantiated when the plan
     * has transients, so the fault-free data path is untouched.
     */
    LinkLayerParams link;

    /** Observability: metrics registry is always on; worm-lifecycle
     *  tracing is opt-in via telemetry.trace. */
    TelemetryParams telemetry;
};

/** Aggregate of all switches' counters. */
struct NetworkTotals
{
    std::uint64_t flitsIn = 0;
    std::uint64_t flitsOut = 0;
    std::uint64_t packetsRouted = 0;
    std::uint64_t replications = 0;
    std::uint64_t reservationStallCycles = 0;
};

/**
 * Structured record of a watchdog trip: instead of aborting the
 * process, the network captures what was stuck and lets the caller
 * (experiment loop, test) inspect and report it.
 */
struct WatchdogDiagnosis
{
    Cycle cycle = 0;
    std::size_t messagesInFlight = 0;
    std::size_t nicBacklogPackets = 0;
    /** Full dumpState() output at the moment of the trip. */
    std::string stateDump;
    /** Chrome-trace JSON of the worm tracer's recent history at the
     *  moment of the trip (empty unless telemetry.trace was on). */
    std::string traceJson;
};

/** A fully wired simulated system. */
class Network
{
  public:
    explicit Network(const NetworkConfig &config);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    Simulator &sim() { return sim_; }
    McastTracker &tracker() { return tracker_; }
    PacketFactory &packetFactory() { return factory_; }
    const Topology &topology() const { return *topo_; }
    const NetworkConfig &config() const { return cfg_; }

    std::size_t numHosts() const { return topo_->numHosts(); }
    std::size_t numSwitches() const { return topo_->numSwitches(); }

    Nic &nic(NodeId id);
    SwitchBase &switchAt(SwitchId id);

    /**
     * Attach one workload to every NIC (not owned) and wire its
     * closed-loop plumbing: the tracker's completion hook feeds
     * Workload::onCompleted, and the workload's wake hook rouses the
     * sleeping NIC of a node that a completion released work for.
     *
     * Lifetime: message retirements call back into the workload, and
     * the workload's wake() calls back into this network, so the pair
     * must stay alive together for as long as the simulation can run.
     * Call detachWorkload() to sever both directions before
     * destroying either side ahead of the other. Attaching a second
     * workload implicitly detaches the first.
     */
    void attachWorkload(Workload *workload);

    /**
     * Disconnect the attached workload (no-op when none is): clears
     * the NIC pointers, the tracker completion hook, and the
     * workload's back-reference to this network, after which either
     * side may be destroyed independently.
     */
    void detachWorkload();

    /** Largest packet (header + payload) the system can produce. */
    int maxPacketFlits() const { return maxPacketFlits_; }

    /** Header size of a hardware multicast worm in this system. */
    int mcastHeaderFlits() const { return mcastHeaderFlits_; }

    /** True when nothing is queued or in flight anywhere. */
    bool idle() const;

    /** Sum of NIC injection backlogs, in packets. */
    std::size_t totalTxBacklog() const;

    /** Arm the simulator's deadlock watchdog with sane hooks. A trip
     *  records a WatchdogDiagnosis (with a state dump) and stops the
     *  run instead of aborting the process. */
    void armWatchdog(Cycle quietLimit);

    /** Diagnosis recorded by the last watchdog trip, if any. */
    const WatchdogDiagnosis *watchdogDiagnosis() const
    {
        return diagnosis_.get();
    }

    /** The fault/recovery layer, present iff faults are configured. */
    ResilienceManager *resilience() { return resilience_.get(); }

    /**
     * The ARQ layer sending *from* (sw, port), or null when the
     * transient-fault subsystem is off or the port is not a
     * switch-switch link endpoint.
     */
    LinkLayer *linkLayer(SwitchId sw, PortId port);

    /**
     * A fail-stop fault took this switch-switch link down: stop both
     * directions' ARQ (later sends drop-and-poison). No-op when no
     * link layers exist. Called by the resilience layer.
     */
    void markLinkDead(SwitchId sw, PortId port);

    /** Observability context: every component's stats live in its
     *  registry; the tracer (if enabled) records worm lifecycles. */
    Telemetry &telemetry() { return telemetry_; }
    const Telemetry &telemetry() const { return telemetry_; }

    /** Snapshot every registered metric (cheap; read-only). */
    MetricsSnapshot metricsSnapshot() const
    {
        return telemetry_.registry().snapshot();
    }

    /** Snapshot the worm tracer, or an empty trace when disabled. */
    WormTrace traceSnapshot() const
    {
        return telemetry_.tracer() ? telemetry_.tracer()->snapshot()
                                   : WormTrace{};
    }

    /**
     * End-of-run invariant: no flit or credit in flight on any
     * channel, every switch's buffers empty with all credits home,
     * and every NIC drained. Appends reasons to @p why (if non-null)
     * on failure.
     */
    bool checkQuiescent(std::string *why) const;

    /** Sum all switches' counters. */
    NetworkTotals totals() const;

    /** Sum the counters of the switches assigned to @p shard. */
    NetworkTotals totalsForShard(std::uint32_t shard) const;

    /**
     * Parallel shards actually in use (0 = running flat, either
     * because sim.shards <= 1 or because a serial-only subsystem
     * vetoed sharding).
     */
    std::size_t effectiveShards() const { return effectiveShards_; }

    /** Why sharding is off ("" when sharded or never requested). */
    const std::string &serialReason() const { return serialReason_; }

    /** The switch partition (valid when effectiveShards() > 0). */
    const ShardPlan &shardPlan() const { return shardPlan_; }

    /** Per-shard scheduler statistics; entry [effectiveShards()] is
     *  the serial bucket. Empty when running flat. */
    std::vector<ShardStat> shardStats() const
    {
        return sim_.shardStats();
    }

    /**
     * A subsystem that mutates shared state from inside switch steps
     * (e.g. the hardware-barrier units calling the packet factory)
     * declares itself here; if sharding is active it is dissolved —
     * back to the bit-identical flat fast path.
     */
    void requireSerial(const std::string &why);

    /** Mean central-queue chunk occupancy over all CB switches. */
    double avgCqChunks() const;

    /** Dump every switch's internal state (deadlock diagnosis). */
    void dumpState(FILE *out) const;

    /**
     * Snapshot the cumulative flit count of every connected switch
     * output port, in a stable order (for utilization deltas).
     */
    std::vector<std::uint64_t> portTxSnapshot() const;

  private:
    /**
     * One link as wire() lays it out, with the slots of its first
     * flit and credit channel. A switch-switch link (b valid) owns
     * channels ab, ba and credit channels cab, cba; a host link owns
     * inj/cinj when it injects, then ej/cej when it ejects.
     */
    struct LinkSite
    {
        SwitchId a;
        PortId pa;
        /** Far switch end, or kInvalidSwitch on a host link. */
        SwitchId b;
        PortId pb;
        NodeId host;
        bool inject;
        bool eject;
        std::size_t flit;
        std::size_t credit;
    };

    /** Visit every link in wiring order; returns the flit and credit
     *  channel counts. */
    template <typename Visit>
    std::pair<std::size_t, std::size_t> forEachLink(Visit &&visit) const;

    /**
     * Visit every channel in slot order within each array:
     * visit(link, credit, slot, src, snk, suffix), with src/snk the
     * sending and receiving switch (-1 = a NIC).
     */
    template <typename Visit> void forEachChannel(Visit &&visit) const;

    /** Diagnostic name of @p link's channel @p suffix (".ab",
     *  ".cinj", ...), e.g. "sw0.p4-sw4.p0.ab" or "nic1-sw0.p1.ej". */
    static std::string channelName(const LinkSite &link,
                                   const char *suffix);

    void build();
    void wire();
    void setupSharding();
    void installFaults();
    /** Instantiate and attach one LinkLayer per link direction. */
    void installLinkLayers(double ber, double residual,
                           std::uint64_t seed,
                           const std::vector<FlapWindow> &flaps);
    void registerTelemetry();
    void onWatchdogTrip();

    NetworkConfig cfg_;
    std::unique_ptr<Topology> topo_;
    Simulator sim_;
    PacketFactory factory_;
    McastTracker tracker_;
    int maxPacketFlits_ = 0;
    int mcastHeaderFlits_ = 0;

    std::vector<std::unique_ptr<SwitchBase>> switches_;
    std::vector<std::unique_ptr<Nic>> nics_;
    /** Every channel, sized once by wire() (switches and NICs hold
     *  pointers into them); forEachChannel() names their slots. */
    std::vector<Channel<Flit>> flitChannels_;
    std::vector<CreditChannel> creditChannels_;
    /** Side records of boundary and hooked channels: one array per
     *  source shard (setupSharding) and one for the link hooks. */
    std::vector<std::unique_ptr<Channel<Flit>::Side[]>> flitSides_;
    std::vector<std::unique_ptr<CreditChannel::Side[]>> creditSides_;

    ShardPlan shardPlan_;
    std::size_t effectiveShards_ = 0;
    std::string serialReason_;
    std::vector<std::unique_ptr<LinkLayer>> linkLayers_;

    Telemetry telemetry_;

    std::unique_ptr<ResilienceManager> resilience_;
    std::unique_ptr<WatchdogDiagnosis> diagnosis_;

    /** Attached by attachWorkload(); not owned. */
    Workload *workload_ = nullptr;
};

} // namespace mdw

#endif // MDW_CORE_NETWORK_HH
