/**
 * @file
 * Packet descriptors.
 *
 * Flits carry a shared pointer to an immutable PacketDesc; replicating
 * a worm at a switch creates a branch descriptor with the destination
 * set pruned to the subset reachable through that branch's output port
 * (modeling the header-rewrite logic of the hardware). All branches
 * share the original packet/message identifiers and timestamps, so
 * end-to-end statistics see one logical packet.
 */

#ifndef MDW_MESSAGE_PACKET_HH
#define MDW_MESSAGE_PACKET_HH

#include <memory>
#include <string>
#include <vector>

#include "message/dest_set.hh"
#include "sim/types.hh"

namespace mdw {

/** What a packet is, for routing and accounting purposes. */
enum class PacketKind
{
    /** Ordinary single-destination packet. */
    Unicast,
    /** Hardware multidestination worm (bit-string or multiport). */
    HwMulticast,
    /**
     * Unicast packet that is one hop of a software multicast tree;
     * routed exactly like Unicast but tracked as multicast traffic.
     */
    SwMulticastCarrier,
    /**
     * Hardware-barrier arrival token (2 flits). Not destination
     * routed: consumed and combined by the switch barrier units on
     * the way to the root switch, which emits the release multicast.
     */
    BarrierArrive,
};

const char *toString(PacketKind kind);

/**
 * Integrity state of one replication branch of a worm.
 *
 * Flits are regenerated from the shared descriptor at every hop, so
 * per-flit state cannot survive a link; the payload-corruption bit
 * instead hangs off the descriptor. Every pruneBranch() creates a
 * child node chained to the parent's, so marking a branch corrupted
 * taints exactly that replication subtree (descriptors downstream of
 * the corrupting link) and leaves sibling branches clean. The NIC
 * walks the chain at delivery — the end-to-end payload checksum.
 *
 * Nodes are allocated only when the network enables integrity
 * tracking (transient faults configured); otherwise the pointer
 * stays null and the fault-free path is untouched.
 */
struct PacketTaint
{
    /** A link corrupted this branch's payload undetectably. */
    bool corrupted = false;
    /** Integrity state inherited from the pre-replication worm. */
    std::shared_ptr<const PacketTaint> parent;

    /** True if this branch or any ancestor saw corruption. */
    bool
    tainted() const
    {
        for (const PacketTaint *t = this; t != nullptr;
             t = t->parent.get()) {
            if (t->corrupted)
                return true;
        }
        return false;
    }
};

/** Immutable description of one packet (worm). */
struct PacketDesc
{
    PacketId id = 0;
    MsgId msg = 0;
    NodeId src = kInvalidNode;

    /** Destinations this worm (branch) still has to reach. */
    DestSet dests;

    PacketKind kind = PacketKind::Unicast;

    /** Routing-header flits at the front of the worm. */
    int headerFlits = 0;
    /** Data flits following the header. */
    int payloadFlits = 0;

    /** Number of packets the parent message was segmented into. */
    int msgPackets = 1;
    /** This packet's index within its message, [0, msgPackets). */
    int msgSeq = 0;

    /** Cycle the originating message was created by the workload. */
    Cycle created = 0;
    /** Cycle the head flit entered the network at the source NIC. */
    Cycle injected = 0;

    /** For BarrierArrive: the barrier group being signaled. */
    int barrierGroup = -1;

    /**
     * Traffic class for virtual-lane allocation: 0 = bulk (default),
     * 1 = latency-sensitive. Switches map the class onto a lane
     * partition; with a single lane the field is inert.
     */
    int trafficClass = 0;

    /**
     * For SwMulticastCarrier: destinations delegated to the receiver,
     * which it must forward to in later software phases.
     */
    std::vector<NodeId> swDelegated;
    /** Software-tree depth of this carrier (0 = sent by the root). */
    int swPhase = 0;

    /**
     * Integrity node of this replication branch; null unless the
     * network tracks end-to-end integrity. The node (not the
     * descriptor) is mutable: a link that lets corruption slip past
     * its CRC sets taint->corrupted on the branch it carried.
     */
    std::shared_ptr<PacketTaint> taint;

    int totalFlits() const { return headerFlits + payloadFlits; }

    std::string toString() const;
};

using PacketPtr = std::shared_ptr<const PacketDesc>;

/**
 * Create the branch descriptor used after replicating a worm towards
 * one output port: identical to @p parent but destinations pruned to
 * @p branchDests.
 */
PacketPtr pruneBranch(const PacketPtr &parent, DestSet branchDests);

/** Allocator of unique packet and message identifiers. */
class PacketFactory
{
  public:
    /** Build a packet; id/msg fields are filled in. */
    PacketPtr
    make(PacketDesc proto)
    {
        proto.id = nextPacket_++;
        if (proto.msg == 0)
            proto.msg = nextMsg_++;
        if (integrity_)
            proto.taint = std::make_shared<PacketTaint>();
        return std::make_shared<const PacketDesc>(std::move(proto));
    }

    /** Reserve a message id (for multi-packet/multi-phase messages). */
    MsgId newMsgId() { return nextMsg_++; }

    /**
     * Give every future packet a root integrity node (end-to-end
     * checksum tracking). Enabled by the network when transient
     * faults are configured; off by default so the fault-free path
     * allocates nothing extra.
     */
    void enableIntegrityTracking() { integrity_ = true; }

    PacketId packetsCreated() const { return nextPacket_ - 1; }

  private:
    PacketId nextPacket_ = 1;
    MsgId nextMsg_ = 1;
    bool integrity_ = false;
};

} // namespace mdw

#endif // MDW_MESSAGE_PACKET_HH
