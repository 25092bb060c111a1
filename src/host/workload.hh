/**
 * @file
 * Workload interface between the host layer and traffic generators.
 *
 * A Workload is polled by every NIC for messages to post (the
 * open-loop half) and is additionally *notified* of message
 * progress: onPosted() when a polled spec has been assigned a message
 * id, and onCompleted() when the tracker retires the whole message
 * (its last copy delivered). Closed-loop workloads use those
 * notifications to release dependent messages, which in turn wakes
 * the sleeping NIC of the releasing node through the wake hook — so
 * the idle-skipping fast path stays bit-identical to the
 * always-polled oracle.
 *
 * Determinism contract (the "release rule"): a hook observing an
 * event at cycle t may schedule new emissions no earlier than t+1.
 * Completions happen while components are being stepped, in an order
 * the oracle and the fast path do not guarantee to share; deferring
 * the reaction one cycle makes the reaction order observable only
 * through the (deterministic) cycle timeline.
 */

#ifndef MDW_HOST_WORKLOAD_HH
#define MDW_HOST_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "message/dest_set.hh"
#include "sim/types.hh"

namespace mdw {

/** A message the workload asks a NIC to send. */
struct MessageSpec
{
    bool multicast = false;
    NodeId dest = kInvalidNode; // unicast
    DestSet dests{0};           // multicast
    int payloadFlits = 64;
    /**
     * Traffic class for virtual-lane isolation: 0 = bulk (default),
     * 1 = latency-sensitive. Workloads tag e.g. multicast foreground
     * traffic so multi-lane switches route it on its own lane
     * partition. Inert when the fabric runs a single lane.
     */
    int trafficClass = 0;
    /**
     * Workload-private correlation id carried back through
     * onPosted(), so a closed-loop generator can match the MsgId the
     * NIC allocates to the logical operation that emitted the spec.
     * 0 = untracked (open-loop generators never set it).
     */
    std::uint64_t token = 0;
};

/**
 * Interface the workload layer implements. Open-loop generators only
 * override poll()/nextArrival(); closed-loop ones also consume the
 * notification hooks below.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Append messages node @p node creates at cycle @p now. */
    virtual void poll(NodeId node, Cycle now,
                      std::vector<MessageSpec> &out) = 0;

    /**
     * Earliest cycle >= @p now at which poll() may yield a message
     * for @p node, or kNoCycle if it never will again *absent new
     * completions*. Lets the fast-path kernel put an idle NIC to
     * sleep between arrivals; a closed-loop workload that answers
     * kNoCycle must wake() the node when a completion later releases
     * work for it. The default -- "maybe right now" -- keeps the NIC
     * polling every cycle, which is always correct.
     */
    virtual Cycle
    nextArrival(NodeId node, Cycle now)
    {
        (void)node;
        return now;
    }

    /**
     * A message was posted by @p src's NIC and assigned @p msg.
     * @p token is the originating spec's correlation id (0 for
     * untracked specs and for messages posted directly through the
     * NIC API). Invoked *before* the send leaves the NIC, so it
     * always precedes onCompleted() for @p msg —
     * even when a post retires synchronously because every
     * destination is written off as unreachable.
     */
    virtual void
    onPosted(NodeId src, std::uint64_t token, MsgId msg, Cycle now)
    {
        (void)src;
        (void)token;
        (void)msg;
        (void)now;
    }

    /**
     * The tracker retired @p msg (every destination delivered or
     * written off as unreachable). Also fires for messages other
     * agents posted (a sibling in a WorkloadMix, the hardware
     * barrier's release worm), so implementations must ignore
     * unknown ids.
     */
    virtual void
    onCompleted(MsgId msg, NodeId src, Cycle now)
    {
        (void)msg;
        (void)src;
        (void)now;
    }

    /**
     * True when the workload will never emit again: no future
     * arrivals and no blocked work awaiting a completion. Closed-loop
     * run loops drain on `exhausted() && net.idle()`. Open-loop
     * generators keep the default (the experiment harness bounds them
     * by stopCycle instead).
     */
    virtual bool exhausted() const { return true; }

    /** Wake @p node's NIC no later than cycle @p when (fast path). */
    using WakeFn = std::function<void(NodeId, Cycle)>;

    /** Installed by Network::attachWorkload and by WorkloadMix on its
     *  children; not for user code. */
    void setWakeHook(WakeFn fn) { wakeHook_ = std::move(fn); }

  protected:
    /** Request a wake of @p node at @p when; no-op until attached. */
    void
    wake(NodeId node, Cycle when)
    {
        if (wakeHook_)
            wakeHook_(node, when);
    }

  private:
    WakeFn wakeHook_;
};

} // namespace mdw

#endif // MDW_HOST_WORKLOAD_HH
