/**
 * @file
 * Network interface (NIC) of a processing node.
 *
 * Responsibilities:
 *  - injection: serializes posted messages onto the injection link,
 *    paying a software send overhead per packet (start-up cost);
 *  - hardware multicast: emits a single multidestination worm
 *    (bit-string encoding) or a minimal set of worms (multiport
 *    encoding product groups);
 *  - software multicast: emits the U-Min binomial-tree unicast
 *    carriers and, on receiving a carrier with delegated
 *    destinations, forwards after a receive overhead;
 *  - ejection: consumes arriving flits, reassembles packets, and
 *    reports deliveries to the McastTracker.
 */

#ifndef MDW_HOST_NIC_HH
#define MDW_HOST_NIC_HH

#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "host/mcast_tracker.hh"
#include "host/workload.hh"
#include "message/encoding.hh"
#include "message/flit.hh"
#include "sim/channel.hh"
#include "sim/component.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "switch/switch_base.hh"

namespace mdw {

/** How a node implements multicast sends. */
enum class McastScheme
{
    /** Single-phase multidestination worms. */
    Hardware,
    /** U-Min binomial unicast tree. */
    Software,
};

const char *toString(McastScheme scheme);

/** NIC configuration. */
struct NicParams
{
    /** Cycles of software start-up per packet send. */
    Cycle sendOverhead = 100;
    /** Cycles of software processing before forwarding a received
     *  software-multicast carrier. */
    Cycle recvOverhead = 100;
    /** Ejection-side buffering advertised to the switch (flits). */
    int rxWindowFlits = 16;
    /**
     * Virtual lanes on the host links; mirrored from the switch
     * configuration by the network builder. The NIC injects each
     * packet on its traffic class's static lane and keeps per-lane
     * credit and reassembly state.
     */
    int lanes = 1;
    /**
     * Largest payload one packet may carry; longer messages are
     * segmented into several packets and reassembled at the
     * receiver (delivery is reported when the last one lands).
     */
    int maxPayloadFlits = 256;
    McastScheme scheme = McastScheme::Hardware;
    McastEncoding encoding = McastEncoding::BitString;
    EncodingParams enc;
    /**
     * Multiport encoding: tree arity and number of digit levels of
     * the topology (ignored for bit-string).
     */
    int multiportK = 4;
    int multiportLevels = 3;
    /**
     * If true, software-multicast carriers pay extra header flits for
     * the piggy-backed delegated-destination list.
     */
    bool swListOverhead = false;
    /**
     * Cycles to wait for a message's deliveries before retransmitting
     * to the destinations that still owe a copy (fault recovery).
     * 0 disables retransmission entirely. Requires the tracker's
     * resilient mode.
     */
    Cycle retransmitTimeout = 0;
    /**
     * Retransmission attempts per message before the remaining
     * destinations are written off as unreachable. The retry interval
     * doubles per attempt, capped at 8x retransmitTimeout.
     */
    int maxRetransmits = 4;
};

/** Per-NIC activity counters. */
struct NicStats
{
    Counter messagesPosted;
    Counter packetsInjected;
    Counter flitsInjected;
    Counter flitsEjected;
    Counter packetsDelivered;
    Counter swForwards;
    /** Whole-message retransmission rounds issued (fault recovery). */
    Counter retransmits;
    /** Packets discarded at ejection because a fault mangled them. */
    Counter poisonedDrops;
    /** Packets whose end-to-end payload checksum failed at delivery
     *  (corruption evaded the link CRC somewhere upstream). */
    Counter csumFails;
};

/** One processing node's network interface. */
class Nic : public Component
{
  public:
    /**
     * @param numHosts System size (destination universe).
     * @param factory Shared packet-id allocator.
     * @param tracker Shared delivery tracker.
     */
    Nic(std::string name, NodeId id, std::size_t numHosts,
        const NicParams &params, PacketFactory *factory,
        McastTracker *tracker);

    /** Wire the injection link toward the switch. */
    void connectTx(Channel<Flit> *out, CreditChannel *creditIn,
                   const ReceivePolicy &downstream);

    /** Wire the ejection link from the switch. */
    void connectRx(Channel<Flit> *in, CreditChannel *creditOut);

    /** Ejection policy advertised to the upstream switch. */
    ReceivePolicy
    receivePolicy() const
    {
        return ReceivePolicy{params_.rxWindowFlits, false};
    }

    /** Attach a workload polled every cycle (not owned). The NIC
     *  also feeds the workload's onPosted hook. */
    void setWorkload(Workload *workload) { source_ = workload; }

    /**
     * Post a unicast message (application API). @p token is the
     * workload correlation id reported through Workload::onPosted
     * (0 = untracked); the workload learns the message id *before*
     * the send is launched, because pruning unreachable destinations
     * can retire the message synchronously inside the post.
     * @return The message id (for delivery-callback matching).
     */
    MsgId postUnicast(NodeId dest, int payloadFlits, Cycle now,
                      std::uint64_t token = 0, int trafficClass = 0);

    /**
     * Post a multicast message; expands per the configured scheme
     * and encoding. @p dests must not contain this node. @p token as
     * for postUnicast().
     * @return The message id (for delivery-callback matching).
     */
    MsgId postMulticast(const DestSet &dests, int payloadFlits,
                        Cycle now, std::uint64_t token = 0,
                        int trafficClass = 0);

    /**
     * Emit a 2-flit hardware-barrier arrival token for @p group
     * (consumed by the switch combining units, never delivered).
     */
    void postBarrierArrive(int group, Cycle now);

    void step(Cycle now) override;

    Cycle nextWork(Cycle now) override;

    const NicStats &stats() const { return stats_; }

    /**
     * Register this NIC's stats under "nic.<id>." and pick up the
     * shared worm tracer. Called once by the network after wiring.
     */
    void attachTelemetry(Telemetry &telemetry);

    /** Packets waiting to be injected (saturation indicator). */
    std::size_t txBacklog() const { return txQueued_; }

    // --- Fault-injection hooks (resilience layer) ------------------

    /**
     * Attach the shared poison registry: a packet whose id appears
     * there was truncated by a fault and phantom-completed in the
     * network; this NIC silently discards such deliveries (modeling
     * an end-to-end CRC check).
     */
    void setPoisonRegistry(const std::unordered_set<PacketId> *poisoned)
    {
        poisoned_ = poisoned;
    }

    /**
     * Attach this host's reachable-destination set (maintained by the
     * resilience layer; updated in place as faults land). Posts and
     * retransmissions write unreachable destinations off immediately
     * instead of burning retries.
     */
    void setReachable(const DestSet *reachable)
    {
        reachable_ = reachable;
    }

    /**
     * Kill the injection side (the host's up-link died): queued
     * packets are dropped and every future post is written off as
     * undeliverable. Requires the tracker's resilient mode.
     */
    void failTx();

    /** Kill the ejection side: arriving flits are drained and
     *  discarded. */
    void failRx();

    /**
     * End-of-run invariant: nothing queued for injection, no packet
     * mid-reassembly, and (strict mode) no partially reassembled
     * message. Appends a reason to @p why on failure.
     */
    bool quiescent(std::string *why) const;

  private:
    struct SendJob
    {
        PacketDesc proto;
        PacketPtr pkt;      // created when transfer starts
        int sent = 0;
        bool prepared = false;
        Cycle readyAt = 0;
    };

    void pollSource(Cycle now);
    void stepTx(Cycle now);
    void stepRx(Cycle now);
    /**
     * Expand one (re)transmission of @p msg toward @p dests per the
     * configured scheme/encoding and queue the packets. Shared by the
     * post* entry points and the retransmission path (which must not
     * allocate a new message id).
     */
    void sendCopies(MsgId msg, const DestSet &dests, bool multicast,
                    int payloadFlits, int trafficClass, Cycle now);
    /** Filter dests through reachability, writing the rest off. */
    DestSet pruneUnreachable(MsgId msg, const DestSet &dests,
                             Cycle now);
    /** First transmission: prune, arm the retry timer, send. */
    void launch(MsgId msg, const DestSet &dests, bool multicast,
                int payloadFlits, int trafficClass, Cycle now);
    /** Fire retransmissions whose delivery deadline has passed. */
    void checkRetransmits(Cycle now);
    void enqueueJob(PacketDesc proto);
    /** Split @p proto into maxPayloadFlits-sized packets and queue. */
    void enqueueSegmented(PacketDesc proto);
    void deliver(const PacketPtr &pkt, Cycle now);
    void forwardSwCarrier(PacketPtr pkt, int payloadFlits);
    int swCarrierHeaderFlits(std::size_t delegated) const;

    NodeId id_;
    std::size_t numHosts_;
    NicParams params_;
    PacketFactory *factory_;
    McastTracker *tracker_;
    Workload *source_ = nullptr;

    /** Static lane a packet of @p trafficClass is injected on. */
    int injectLane(int trafficClass) const
    {
        return laneClassBase(params_.lanes, trafficClass);
    }

    // Injection side.
    Channel<Flit> *txOut_ = nullptr;
    CreditChannel *txCreditIn_ = nullptr;
    /** Per-lane credits toward the switch input FIFOs. */
    std::vector<int> txCredits_;
    bool txMcastWholePacket_ = false;
    /** Injection queue per lane (indexed by injectLane()); each
     *  lane's front job is its injection engine's head. */
    std::vector<Ring<SendJob>> txQueue_;
    /** Jobs queued over every lane. */
    std::size_t txQueued_ = 0;

    // Ejection side. Reassembly is per lane: the switch interleaves
    // packets of different lanes on the physical ejection link.
    Channel<Flit> *rxIn_ = nullptr;
    CreditChannel *rxCreditOut_ = nullptr;
    std::vector<PacketPtr> rxCurrent_;
    std::vector<int> rxArrived_;

    /** Reassembly of multi-packet messages. */
    struct RxMessage
    {
        /** Segment sequence numbers seen (dedups retransmissions). */
        std::unordered_set<int> seen;
        int payload = 0;
    };
    std::unordered_map<MsgId, RxMessage> rxMessages_;

    /** One message awaiting delivery confirmation (retransmission). */
    struct Pending
    {
        DestSet dests{0};
        int payloadFlits = 0;
        bool multicast = false;
        /** Lane class of the original send; retransmits keep it. */
        int trafficClass = 0;
        int attempts = 0;
        Cycle interval = 0;
        Cycle deadline = 0;
    };
    /** Ordered by message id so retry bursts are deterministic. */
    std::map<MsgId, Pending> pending_;
    Cycle nextRetx_ = kNoCycle;

    const std::unordered_set<PacketId> *poisoned_ = nullptr;
    const DestSet *reachable_ = nullptr;
    bool txFailed_ = false;
    bool rxFailed_ = false;

    /** Shared worm tracer; null while tracing is off. */
    WormTracer *tracer_ = nullptr;

    NicStats stats_;
};

} // namespace mdw

#endif // MDW_HOST_NIC_HH
