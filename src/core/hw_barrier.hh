/**
 * @file
 * Hardware barrier synchronization — the paper's stated future work,
 * developed in the authors' companion IPPS'97 paper [34].
 *
 * The manager maps a barrier group onto a combining tree over the
 * switches (following each switch's lowest-numbered up port toward
 * the unique root), installs the per-switch combining roles, and
 * drives rounds: every member NIC emits a 2-flit BarrierArrive
 * token; switches combine; the root switch originates the release —
 * an ordinary multidestination worm to all members — whose last
 * delivery completes the barrier.
 *
 * Compared to the software arrive+release barrier (the Barrier
 * collective kernel, workload/kernels.hh), the gather side costs one
 * token per tree hop instead of one unicast message per member
 * converging on the root's ejection link, and the release is emitted
 * in the middle of the network rather than from a host.
 *
 * Requires the central-buffer architecture (the SP-Switch-style
 * design the companion paper targets). The manager is a Workload: a
 * round finishes when the tracker retires its release, which reaches
 * the manager only while it is attached to the Network (alone, or in
 * a WorkloadMix beside other traffic). One manager per Network.
 */

#ifndef MDW_CORE_HW_BARRIER_HH
#define MDW_CORE_HW_BARRIER_HH

#include <functional>
#include <unordered_map>

#include "core/network.hh"
#include "host/workload.hh"

namespace mdw {

/** Plans combining trees and runs hardware barrier rounds. */
class HwBarrierManager : public Workload
{
  public:
    using Done = std::function<void(Cycle)>;

    /** @param net Must use SwitchArch::CentralBuffer. */
    explicit HwBarrierManager(Network &net);

    /**
     * Create a barrier group over @p members (at least two) and
     * install its combining tree in the switches. Returns the group
     * id used by startBarrier().
     */
    int createGroup(const DestSet &members);

    /**
     * Run one barrier round: every member signals arrival now; the
     * callback fires when the last member has received the release.
     * A group supports one outstanding round at a time.
     */
    void startBarrier(int group, Done done);

    /** Arrival tokens are posted by startBarrier(), not polled. */
    void poll(NodeId, Cycle, std::vector<MessageSpec> &) override {}

    /** Nothing to poll, so the NICs may sleep between rounds. */
    Cycle nextArrival(NodeId, Cycle) override { return kNoCycle; }

    /** Finishes the round whose release worm @p msg retired. */
    void onCompleted(MsgId msg, NodeId src, Cycle now) override;

    /** Rounds in flight. */
    std::size_t pendingBarriers() const { return pending_; }

    /** Payload flits of the release worm. */
    static constexpr int kReleasePayload = 2;

  private:
    struct Group
    {
        DestSet members{0};
        bool active = false;
        MsgId releaseMsg = 0;
        Done done;
    };

    PacketDesc makeReleaseDesc(int group);

    Network &net_;
    std::unordered_map<int, Group> groups_;
    std::unordered_map<MsgId, int> msgToGroup_;
    int nextGroup_ = 0;
    std::size_t pending_ = 0;
};

} // namespace mdw

#endif // MDW_CORE_HW_BARRIER_HH
