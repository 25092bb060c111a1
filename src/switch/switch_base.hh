/**
 * @file
 * Common machinery shared by the two switch architectures: port
 * wiring, the link-facing datapath (lane-demuxed input FIFOs and the
 * per-lane flit-send gate), credit-based link flow control, the
 * multidestination whole-packet reservation rule, and per-switch
 * statistics.
 */

#ifndef MDW_SWITCH_SWITCH_BASE_HH
#define MDW_SWITCH_SWITCH_BASE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "message/flit.hh"
#include "sim/channel.hh"
#include "sim/component.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/slot_mask.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "switch/arbiter.hh"
#include "topology/routing.hh"

namespace mdw {

/**
 * What a component advertises about one of its input ports, consumed
 * by the wiring code to initialize the upstream sender's credit
 * counter and reservation behaviour.
 */
struct ReceivePolicy
{
    /** Flits of buffering behind the link (initial credits). */
    int window = 0;
    /**
     * True if a multidestination worm may only start transfer on this
     * link once the whole packet fits in the receiver's buffer (the
     * input-buffer architecture's deadlock-avoidance rule). False for
     * receivers that make their own internal acceptance decision
     * (central-buffer switch) or always consume (NIC ejection).
     */
    bool mcastWholePacket = false;
};

/**
 * How a switch replicates a multidestination worm to several output
 * ports (paper Section 3).
 */
enum class ReplicationMode
{
    /**
     * Each granted branch forwards at its own pace; a blocked branch
     * never blocks the others. The paper's preferred mechanism.
     */
    Asynchronous,
    /**
     * Branches proceed in lock-step: all required output ports are
     * acquired atomically (all-or-nothing, avoiding hold-and-wait
     * deadlock) and a flit is forwarded only when every branch can
     * accept it, modeling the feedback architecture of synchronous
     * replication. Only the input-buffer architecture supports this;
     * the central queue's store-once readers are inherently
     * asynchronous.
     */
    Synchronous,
};

const char *toString(ReplicationMode mode);

/** Parameters common to both switch architectures. */
struct SwitchParams
{
    RoutingVariant variant = RoutingVariant::ReplicateAfterLca;
    UpPortPolicy upPolicy = UpPortPolicy::Adaptive;
    ReplicationMode replication = ReplicationMode::Asynchronous;
    /**
     * Virtual lanes per physical link. Each lane gets its own flit
     * buffers and credit counter; the physical link still carries at
     * most one flit per cycle. 1 = the original single-lane switch.
     */
    int lanes = 1;
    /** How traffic classes map onto lanes (see LaneAlloc). */
    LaneAlloc laneAlloc = LaneAlloc::StaticClass;
    std::uint64_t seed = 1;
};

/** Per-switch activity counters. */
struct SwitchStats
{
    Counter flitsIn;
    Counter flitsOut;
    Counter packetsRouted;
    /** Extra output copies created beyond the first (replications). */
    Counter replications;
    /** Cycles a multidestination head waited for buffer reservation. */
    Counter reservationStallCycles;
    /** Flits swallowed by failed ports (fault injection). */
    Counter tombstonedFlits;
    /** Destinations dropped because no route survived the faults. */
    Counter unroutableDests;
    /** Cycles a lane had a flit ready but lost the physical-link
     *  mux to another lane (only counted when lanes > 1). */
    Counter laneStallCycles;
};

/**
 * Base class: owns the port arrays and the link-facing datapath —
 * input intake into per-(port, lane) FIFOs and the per-lane send gate
 * onto the output links — plus link-level credit flow control.
 * Concrete architectures own buffering, arbitration and replication,
 * and implement step().
 */
class SwitchBase : public Component
{
  public:
    /**
     * @param name Diagnostic name.
     * @param id Switch id within the topology.
     * @param routing This switch's frozen routing state (not owned).
     * @param params Common parameters.
     * @param inputFlits Flits of FIFO buffering per (input port, lane).
     */
    SwitchBase(std::string name, SwitchId id,
               const SwitchRouting *routing, const SwitchParams &params,
               int inputFlits);

    /** Attach the receive side of port @p port. */
    void connectIn(PortId port, Channel<Flit> *in,
                   CreditChannel *creditOut);

    /**
     * Attach the send side of port @p port.
     * @param policy The downstream receiver's advertised policy.
     */
    void connectOut(PortId port, Channel<Flit> *out,
                    CreditChannel *creditIn,
                    const ReceivePolicy &policy);

    /** The policy this switch advertises for its input @p port. */
    virtual ReceivePolicy receivePolicy(PortId port) const = 0;

    SwitchId id() const { return id_; }
    const SwitchStats &stats() const { return stats_; }
    const SwitchRouting &routing() const { return *routing_; }

    /** The channel output @p port sends on (null if unconnected). */
    Channel<Flit> *
    outChannel(PortId port) const
    {
        return outs_[static_cast<std::size_t>(port)].out;
    }

    /** Flits ever sent on output @p port (link utilization). */
    std::uint64_t portTxFlits(PortId port) const;

    /** Flits buffered at input @p port, all lanes (tests). */
    int inputOccupancy(PortId port) const;

    /**
     * Time-averaged flits buffered across the per-lane input storage
     * of this switch; sampled every step on multi-lane switches, flat
     * zero on single-lane ones (network lane-occupancy rollup).
     */
    const TimeAverage &laneOccupancy() const { return laneOcc_; }

    /** True if output @p port has a link attached. */
    bool outConnected(PortId port) const;

    /**
     * Swap in a replacement routing table (not owned; must outlive
     * the switch). Used by fault-aware rerouting: packets decoded
     * after the swap follow the new table, packets already branched
     * keep their decisions (failed ports swallow those flits).
     */
    void setRouting(const SwitchRouting *routing);

    /**
     * Fail input @p port: flits still arriving on the dead link are
     * discarded, and any packet caught mid-reception is
     * phantom-completed (its missing flits fabricated into the input
     * FIFO and its id poisoned) so no buffer is left half-filled
     * forever.
     */
    void failInPort(PortId port);

    /**
     * Fail output @p port: it becomes a tombstone sink that consumes
     * flits at wire speed without sending, so upstream replication
     * state and shared buffers drain instead of wedging.
     */
    void failOutPort(PortId port);

    /** Throttle output @p port to one flit per @p factor cycles. */
    void degradeOutPort(PortId port, int factor);

    /**
     * Attach the shared poison registry (owned by the resilience
     * layer). Packets truncated by a fault register their id here;
     * NICs drop poisoned deliveries end-to-end (modeling CRC
     * discard) and retransmission re-covers the destinations.
     */
    void setPoisonRegistry(std::unordered_set<PacketId> *poisoned)
    {
        poisoned_ = poisoned;
    }

    /**
     * End-of-run invariant: every non-failed output's credits returned
     * to their initial value and every input FIFO empty. On failure
     * returns false and appends a reason to @p why (if given).
     * Architectures extend this with their own buffer checks.
     */
    virtual bool quiescent(std::string *why) const;

    /**
     * Check the activity bookkeeping that lets step() skip idle
     * ports, recomputed from scratch: every port's arrival bound is
     * <= its channel's nextArrival(), every live-port bit equals
     * "that channel holds something" and "that bound is not
     * kNoCycle", and every held-input bit equals "that FIFO holds a
     * packet". A skipped port is then one where running the stage
     * would have done nothing. On failure returns false and appends
     * a reason to @p why (if given). Architectures extend this with
     * their own masks.
     */
    virtual bool activityExact(std::string *why) const;

    /**
     * Register this switch's stats under "switch.<id>." (per-port tx
     * counters under "switch.<id>.port.<p>.") and pick up the shared
     * worm tracer. Called once by the network after wiring, so only
     * connected ports register. Architectures extend this with their
     * own metrics.
     */
    virtual void attachTelemetry(Telemetry &telemetry);

  protected:
    struct InPort
    {
        Channel<Flit> *in = nullptr;
        CreditChannel *creditOut = nullptr;
        /** Lower bound on in->nextArrival(), lowered by the channel
         *  on every arrival; intake skips the port while it is in the
         *  future. kNoCycle exactly while the port's inLive_ bit is
         *  clear. */
        Cycle next = kNoCycle;
        bool failed = false;
        bool connected() const { return in != nullptr; }
    };

    struct OutPort
    {
        Channel<Flit> *out = nullptr;
        CreditChannel *creditIn = nullptr;
        /** Lower bound on creditIn->nextArrival() (see InPort::next,
         *  with creditLive_); credit collection skips the port while
         *  it is in the future. */
        Cycle next = kNoCycle;
        /** Each lane's credit counter (see credits()) starts at the
         *  receiver's full advertised window. */
        int initialCredits = 0;
        bool mcastWholePacket = false;
        bool failed = false;
        /** Forward at most one flit per this many cycles (>1 only on
         *  degraded links). */
        int degrade = 1;
        bool connected() const { return out != nullptr; }
    };

    /** One packet resident (possibly partially) in an input FIFO. */
    struct PacketRecord
    {
        PacketPtr pkt;
        int arrived = 0;
    };

    /**
     * Per-(input port, lane) flit FIFO, laneIdx-flattened: each lane
     * owns an independent FIFO of the full advertised window, so a
     * multi-lane switch buffers lanes x inputFlits per port.
     */
    struct InputFifo
    {
        Ring<PacketRecord> packets;
        int freeSlots = 0;
    };

    /** Pull arrived credits on every output port with credits in
     *  flight (lane-demuxed). */
    void collectCredits(Cycle now);

    /** Lanes per link (== params.lanes, >= 1). */
    int lanes() const { return params_.lanes; }

    /** serviceLane() for links with more than one lane. */
    int serviceLaneMulti(Cycle now, int slot) const;

    /** Flattened (port, lane) index used by per-lane switch state. */
    std::size_t
    laneIdx(std::size_t port, int lane) const
    {
        return port * static_cast<std::size_t>(params_.lanes) +
               static_cast<std::size_t>(lane);
    }

    /** Credit counter of @p lane on output @p port. */
    int &credits(std::size_t port, int lane)
    {
        return credits_[laneIdx(port, lane)];
    }
    int credits(std::size_t port, int lane) const
    {
        return credits_[laneIdx(port, lane)];
    }

    /**
     * Allocate the lane a freshly decoded packet will use through
     * this switch, per the configured policy: the fixed base lane of
     * its class partition (static) or the cheapest lane of that
     * partition by @p laneCost (adaptive; ties to the lowest lane).
     * The choice is made once per packet — every replication branch
     * uses it — and traced as LaneAlloc when the switch is
     * multi-lane.
     */
    int allocLane(const PacketDesc &pkt, Cycle now,
                  const std::function<int(int)> &laneCost) const;

    /**
     * The @p slot'th lane in a transmit port's service order this
     * cycle. The latency-sensitive partition (class 1) is served
     * before the bulk partition so a tagged worm never waits behind
     * background flits at the link mux; within each partition the
     * start rotates with the cycle for fairness. A lane can still
     * only send when the link is free, so bulk lanes drain whenever
     * the latency partition is idle — priority, not starvation.
     * With lanes == 1 every slot is lane 0 (single-lane identity).
     */
    int
    serviceLane(Cycle now, int slot) const
    {
        return params_.lanes == 1 ? 0 : serviceLaneMulti(now, slot);
    }

    /**
     * Move this cycle's flit (if any) off every input link with flits
     * in flight into its lane's FIFO. Failed links are drained into
     * tombstones instead.
     */
    void intake(Cycle now);

    /**
     * Complete packets cut off by a failed input link: one fabricated
     * flit per cycle per lane (as the wire would have delivered), with
     * the packet id poisoned so NICs discard the mangled delivery.
     */
    void fabricateFailedArrivals();

    /** True if any input FIFO holds a (possibly partial) packet. */
    bool inputsBuffered() const { return held_.any(); }

    /**
     * Pop the head packet of input FIFO @p slot. Every FIFO pop goes
     * through here so the held-input mask stays exact.
     */
    void
    popInputPacket(std::size_t slot)
    {
        InputFifo &fifo = fifos_[slot];
        fifo.packets.pop_front();
        if (fifo.packets.empty())
            held_.clear(slot);
        else
            decideAt_ = 0; // a new head packet
    }

    /** Sample the per-lane buffered-flit total (multi-lane only). */
    void sampleLaneOccupancy(Cycle now);

    /**
     * The per-lane send gate onto output @p port: try to move flit
     * @p seq of @p pkt across @p lane this cycle. A failed port
     * swallows the flit as a tombstone. Otherwise the flit waits for
     * a lane credit and the port's pacing; a lane that was ready but
     * lost the physical link to another lane counts a lane stall, and
     * a head flit refused by canStartPacket() counts a reservation
     * stall. A sent flit spends a credit and is counted; sending the
     * tail traces the drain.
     * @return True if the flit left (sent or tombstoned); the caller
     *         then advances its own buffering state.
     */
    bool sendFlit(std::size_t port, int lane, const PacketPtr &pkt,
                  int seq, Cycle now);

    /**
     * Earliest in-flight arrival on any attached link: data flits on
     * the inputs (including failed ones, whose flits must still be
     * drained into tombstones) and returning credits on the outputs,
     * read from the per-port arrival bounds. kNoCycle when every link
     * is empty. Architectures combine this with their buffer
     * occupancy to implement nextWork().
     */
    Cycle earliestLinkArrival() const;

    /**
     * May the first flit of @p pkt start crossing @p lane of output
     * @p port this cycle? Applies the whole-packet reservation rule
     * for multidestination worms when the receiver demands it,
     * against that lane's credit counter.
     */
    bool canStartPacket(std::size_t port, int lane,
                        const PacketDesc &pkt) const;

    /**
     * Pick the up port for a packet from decode candidates; the
     * packet's lane rotates the deterministic spread so distinct
     * lanes prefer distinct up links (lane 0 matches the single-lane
     * choice exactly).
     * @param freeOk Predicate: is this port currently a good
     *        (available) choice? Used by the adaptive policy; if no
     *        candidate satisfies it, adaptive falls back to the
     *        deterministic choice.
     */
    PortId chooseUpPort(const RouteDecision &route,
                        const PacketDesc &pkt, int lane,
                        const std::function<bool(PortId)> &freeOk) const;

    /** Count one flit leaving through @p lane of @p port. */
    void notePortSend(std::size_t port, int lane = 0);

    /**
     * True if @p port must skip sending this cycle: failed ports are
     * handled by the tombstone paths, degraded ports pace themselves.
     */
    bool portThrottled(const OutPort &port, Cycle now) const
    {
        return port.degrade > 1 && now % static_cast<Cycle>(port.degrade);
    }

    /** Swallow one flit at a failed port and count it. */
    void noteTombstone() { stats_.tombstonedFlits.inc(); }

    /** Register a truncated packet with the poison registry. */
    void poisonPacket(const PacketDesc &pkt)
    {
        if (poisoned_)
            poisoned_->insert(pkt.id);
    }

    /**
     * Drop any destinations the (tolerant, post-fault) routing table
     * reported unroutable; panics if unroutable destinations appear
     * without fault tolerance (an intact network must route all).
     */
    void noteUnroutable(const RouteDecision &route);

    /** Record a worm lifecycle event at this switch (no-op unless
     *  tracing is enabled). */
    void
    traceWorm(WormEvent kind, Cycle now, const PacketDesc &pkt,
              std::int32_t arg = 0) const
    {
        MDW_TRACE_EVENT(tracer_, kind, now, pkt.id, pkt.msg, id_,
                        false, arg);
    }

    /** IntReader over a RoundRobinArbiter's grant total. */
    static std::uint64_t readGrants(const void *arbiter)
    {
        return static_cast<const RoundRobinArbiter *>(arbiter)
            ->totalGrants();
    }

    SwitchId id_;
    /** "switch.<id>": set by attachTelemetry, extended by the
     *  architectures' own metrics. */
    MetricsRegistry::ScopeId metricScope_ = MetricsRegistry::kRoot;
    const SwitchRouting *routing_;
    SwitchParams params_;
    /** Flits of FIFO buffering per (input port, lane). */
    int inputFlits_;
    std::vector<InPort> ins_;
    /** Input ports whose data channel holds a flit: set by the
     *  channel on every receiver-visible arrival (setArrivalHint),
     *  cleared by intake() when it finds the channel empty. */
    SlotMask inLive_;
    /** laneIdx-flattened: (port, lane) for ports 0..radix. */
    std::vector<InputFifo> fifos_;
    /** Input FIFOs holding a packet: set by intake() on a head flit,
     *  cleared by popInputPacket() when the FIFO empties. */
    SlotMask held_;
    /** Earliest cycle the architecture's head-decode stage can act
     *  (the CB switch's decide gate; the input-buffer switch does
     *  not read it): intake() lowers it to 0 on every head flit,
     *  popInputPacket() whenever a pop leaves a new head packet. */
    Cycle decideAt_ = kNoCycle;
    std::vector<OutPort> outs_;
    /** Output ports whose credit channel holds a grant (see inLive_;
     *  cleared by collectCredits()). */
    SlotMask creditLive_;
    /** Per-(output port, lane) credit counters, laneIdx-flattened. */
    std::vector<int> credits_;
    std::vector<Counter> portTx_;
    /** Per-(port, lane) tx flits, laneIdx-flattened; empty (neither
     *  counted nor registered) on single-lane switches. */
    std::vector<Counter> laneTx_;
    TimeAverage laneOcc_;
    Rng rng_;
    SwitchStats stats_;
    /** Shared poison registry; null while fault injection is off. */
    std::unordered_set<PacketId> *poisoned_ = nullptr;
    /** Shared worm tracer; null while tracing is off. */
    WormTracer *tracer_ = nullptr;
};

} // namespace mdw

#endif // MDW_SWITCH_SWITCH_BASE_HH
