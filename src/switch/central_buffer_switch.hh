/**
 * @file
 * Central-buffer-based switch architecture (paper Section 4),
 * modeled on the IBM SP2 / SP Switch.
 *
 * Each input port has a small FIFO. A unicast packet whose output
 * port is idle cuts through a bypass crossbar; otherwise its flits
 * are written into the shared central queue (in chunks) and linked
 * onto the target output port's service queue. A multidestination
 * worm always flows through the central queue: it is accepted only
 * when enough chunks for the *whole packet* can be reserved, stored
 * once, and read out independently by one reader per requested
 * output port (asynchronous replication; chunks are recycled when
 * the slowest reader passes them).
 *
 * Bandwidth model (SP-Switch register-pipeline flavor): per cycle at
 * most one chunk moves from an input FIFO into the central queue and
 * at most one chunk moves from the central queue into an output
 * FIFO; each output port transmits one flit per cycle downstream.
 */

#ifndef MDW_SWITCH_CENTRAL_BUFFER_SWITCH_HH
#define MDW_SWITCH_CENTRAL_BUFFER_SWITCH_HH

#include <cstdint>
#include <cstdio>
#include <functional>

#include "switch/arbiter.hh"
#include "switch/barrier_unit.hh"
#include "switch/central_queue.hh"
#include "switch/switch_base.hh"

namespace mdw {

/** Parameters of the central-buffer architecture. */
struct CbParams
{
    /** Central queue storage in chunks. */
    int cqChunks = 128;
    /** Flits per chunk. */
    int chunkFlits = 8;
    /**
     * Input FIFO depth in flits. Must hold the largest routing
     * header (decode needs the full header); the network builder
     * raises it if necessary.
     */
    int inputFifoFlits = 16;
    /** Per-output staging FIFO depth in flits. */
    int outputFifoFlits = 16;
    /**
     * Largest packet (header + payload) the system can produce, in
     * flits; sizes the up-phase reservation headroom (see
     * CqParams::upPhaseHeadroom). Set by the network builder; 0
     * disables the partition (single-stage systems have no up
     * phase).
     */
    int maxPacketFlits = 0;
};

/** SP2-style central-buffer switch with multidestination support. */
class CentralBufferSwitch : public SwitchBase
{
  public:
    CentralBufferSwitch(std::string name, SwitchId id,
                        const SwitchRouting *routing,
                        const SwitchParams &params,
                        const CbParams &cbParams);

    void step(Cycle now) override;

    Cycle nextWork(Cycle now) override;

    ReceivePolicy
    receivePolicy(PortId) const override
    {
        return ReceivePolicy{inputFlits_, false};
    }

    /** Chunks currently occupied in the central queue (tests). */
    int cqUsedChunks() const { return cq_.usedChunks(); }
    /** Resident packets in the central queue (tests). */
    std::size_t cqEntries() const { return cq_.entryCount(); }
    /** Time-averaged central-queue occupancy, chunks. */
    double avgCqChunks(Cycle now) const { return cqOcc_.average(now); }

    /** Print the full internal state (deadlock diagnosis). */
    void dumpState(FILE *out) const;

    bool quiescent(std::string *why) const override;

    /** Base checks plus: the bypass- and stream-output bits each
     *  equal the output state they mark (see bypassOut_), and no
     *  stage gate (see writeAt_) is later than the earliest cycle its
     *  stage can act, recomputed from the inputs and outputs. */
    bool activityExact(std::string *why) const override;

    void attachTelemetry(Telemetry &telemetry) override;

    // --- Hardware barrier support (companion IPPS'97 scheme) -------

    /** Builds an id-stamped packet from a descriptor (manager hook). */
    using MakePacket = std::function<PacketPtr(PacketDesc)>;
    /** Builds the release descriptor for a completed group (root). */
    using ReleaseFactory = std::function<PacketDesc(int group)>;

    /** Install the barrier hooks (called by HwBarrierManager). */
    void setBarrierHooks(MakePacket makePacket,
                         ReleaseFactory releaseFactory);

    /** Install this switch's combining role for @p group. */
    void configureBarrier(int group, BarrierSwitchEntry entry);

    /** Barrier tokens absorbed so far (tests). */
    std::uint64_t barrierTokensCombined() const
    {
        return barrierTokens_.value();
    }

  private:
    /** How the head packet of an input is being served. */
    enum class InMode : std::uint8_t
    {
        Deciding,
        Bypass,
        CentralQueue,
        Tombstone
    };

    /** InputState::parked when the input has no parked route. */
    static constexpr std::uint16_t kNotParked = 0xffff;

    /**
     * Per-(input port, lane) head-packet state, laneIdx-flattened
     * like the base's input FIFOs (fifos_).
     */
    struct InputState
    {
        /** Bypass: pruned descriptor. */
        PacketPtr bypassPkt;
        /** Head-packet flits taken out of the FIFO so far. */
        int consumed = 0;
        /** Output lane the head packet was allocated at decode; every
         *  replication branch is queued on it (branch-consistent lane
         *  reservation). */
        int outLane = 0;
        /** Central-queue mode: entry being written. */
        CentralQueue::EntryId entry = CentralQueue::kNoEntry;
        /** Bypass: target output. */
        PortId bypassPort = kInvalidPort;
        InMode mode = InMode::Deciding;
        /** Slot in parked_ holding the head multicast's route while
         *  it waits for its reservation, or kNotParked. */
        std::uint16_t parked = kNotParked;
    };

    /**
     * The decoded route of a multicast waiting for its reservation.
     * Only a waiting head needs its route across cycles (a unicast,
     * or a multicast that reserves at once, is queued in the cycle it
     * decodes), so the switch keeps a small pool of these instead of
     * a route slot in every input.
     */
    struct ParkedRoute
    {
        RouteDecision route;
        /** The table the route was decoded under: a multicast keeps
         *  its route unless setRouting() swapped the table. */
        const SwitchRouting *routedBy = nullptr;
    };

    /** One output port's claim on a central-queue entry. */
    struct QueueItem
    {
        CentralQueue::EntryId entry = CentralQueue::kNoEntry;
        int reader = 0;
        PacketPtr branchPkt;
    };

    /** Per-(output port, lane) service state, laneIdx-flattened. The
     *  bypass input is a flattened (port, lane) index as well; all
     *  lanes of one port share the physical link downstream. */
    struct OutputState
    {
        enum class Mode { Idle, Bypass, Stream } mode = Mode::Idle;
        int bypassInput = -1;
        QueueItem current;
        /** Flits fetched from the CQ but not yet sent downstream. */
        int fifoFlits = 0;
        /** Flits of the current stream fetched from the CQ. */
        int readSeq = 0;
        /** Flits of the current stream sent downstream. */
        int sentSeq = 0;
        Ring<QueueItem> queue;

        bool idle() const { return mode == Mode::Idle; }
    };

    /** Drain inputs whose head packet has nowhere to go (fault). */
    void drainTombstones(Cycle now);
    void decide(Cycle now);
    /** Consume an arrival token at input @p i and maybe emit. */
    void consumeBarrierToken(std::size_t i, Cycle now);
    /** Try to inject pending barrier emissions into the queue. */
    void processBarrierEmissions(Cycle now);
    void decideUnicast(std::size_t input, const RouteDecision &route,
                       Cycle now);
    /** Queue a multicast's branches if its whole-packet reservation
     *  succeeds; false (and a reservation stall) otherwise. */
    bool decideMulticast(std::size_t input, const RouteDecision &route,
                         Cycle now);
    /** Keep @p route for input @p i's waiting multicast. */
    void park(std::size_t i, RouteDecision &&route);
    /** Return input @p i's parked route slot (if any) to the pool. */
    void unpark(std::size_t i);
    void bypassTransmit(Cycle now);
    void cqWrite(Cycle now);
    /** Earliest cycle from @p now at which CQ-mode input @p i has a
     *  chunk (or its tail) staged. */
    Cycle writeBound(std::size_t i, Cycle now) const;
    void activateStreams();
    void cqRead(Cycle now);
    /** Earliest cycle from @p now at which streaming output @p o has a
     *  readable chunk and room for it; kNoCycle until a CQ write. */
    Cycle readBound(std::size_t o, Cycle now) const;
    void streamTransmit(Cycle now);
    /** The head packet of input @p i has fully left its FIFO. */
    void finishHeadPacket(std::size_t i);
    /** Free @p n FIFO slots of input @p i, returning their credits. */
    void releaseInput(std::size_t i, int n, Cycle now);
    /** Queue @p item on output slot @p o: every QueueItem push goes
     *  through here so the stream-output mask stays exact. */
    void enqueueBranch(std::size_t o, QueueItem item);
    /** Output slot @p o finished its bypass or stream. */
    void finishOutput(std::size_t o);

    /** Queue-length cost used by adaptive up-port choice. */
    int outputBacklog(PortId port, int lane) const;
    /** Adaptive lane cost: backlog of the required outputs on @p lane. */
    int laneCost(const RouteDecision &route, int lane) const;

    CbParams cbParams_;
    CentralQueue cq_;
    BarrierUnit barrier_;
    MakePacket makePacket_;
    ReleaseFactory releaseFactory_;
    Ring<BarrierUnit::Emit> barrierEmissions_;
    Counter barrierTokens_;
    /** laneIdx-flattened: (port, lane) for ports 0..radix. */
    std::vector<InputState> inputs_;
    /** Routes of waiting multicasts (see ParkedRoute); a slot goes on
     *  freeParked_ when its multicast is queued, and its successor
     *  reuses it, so the pool only grows with the number of heads
     *  waiting at once. */
    std::vector<ParkedRoute> parked_;
    std::vector<std::uint16_t> freeParked_;
    std::vector<OutputState> outputs_;
    /** Output slots by the stages they need: in bypass (set by the
     *  bypass claim in decideUnicast(), cleared by finishOutput();
     *  bypassTransmit), and streaming or holding queued branches (set
     *  by enqueueBranch(), cleared by finishOutput() on an empty
     *  queue; activateStreams, cqRead, streamTransmit). */
    SlotMask bypassOut_;
    SlotMask streamOut_;
    /**
     * Stage gates: the earliest cycle decide (SwitchBase::decideAt_),
     * cqWrite and cqRead can act, each recomputed by its stage and
     * lowered to 0 by the events that can make it act sooner. The
     * bounds rest on an input FIFO gaining, and an output FIFO
     * losing, at most one flit per cycle: cqWrite waits for a chunk
     * or the tail to be staged, cqRead for chunk room in an output
     * FIFO with readable flits (only a CQ write or a stream
     * activation can give a stream readable flits, and both open
     * it).
     */
    Cycle writeAt_ = kNoCycle;
    Cycle readAt_ = kNoCycle;
    /** Some idle output holds queued branches: set by enqueueBranch()
     *  and finishOutput(), cleared by activateStreams(). */
    bool activateDue_ = false;
    /** Per-step scratch: requesters for the CQ write/read arbiters. */
    std::vector<int> eligible_;
    RoundRobinArbiter writeArb_;
    RoundRobinArbiter readArb_;
    TimeAverage cqOcc_;
};

} // namespace mdw

#endif // MDW_SWITCH_CENTRAL_BUFFER_SWITCH_HH
