/**
 * @file
 * Base machinery for closed-loop workloads: a per-node priority queue
 * of scheduled emissions, token bookkeeping that maps the NIC's
 * message ids back to workload-level operations, and enforcement of
 * the release rule (a hook observing cycle t may schedule no earlier
 * than t+1) that keeps the idle-skipping fast path bit-identical to
 * the cycle-accurate oracle.
 *
 * Subclasses implement the actual dependency logic in
 * onTokenCompleted() and emit with scheduleSend().
 */

#ifndef MDW_WORKLOAD_CLOSED_LOOP_HH
#define MDW_WORKLOAD_CLOSED_LOOP_HH

#include <queue>
#include <unordered_map>
#include <vector>

#include "host/workload.hh"

namespace mdw {

/** Workload base that emits scheduled sends and tracks completions. */
class ClosedLoopWorkload : public Workload
{
  public:
    explicit ClosedLoopWorkload(std::size_t numHosts);

    void poll(NodeId node, Cycle now,
              std::vector<MessageSpec> &out) override;

    Cycle nextArrival(NodeId node, Cycle now) override;

    void onPosted(NodeId src, std::uint64_t token, MsgId msg,
                  Cycle now) override;

    void onCompleted(MsgId msg, NodeId src, Cycle now) override;

    std::size_t numHosts() const { return queues_.size(); }

    /** Emissions handed to a NIC so far (scheduled minus queued). */
    std::size_t emittedCount() const { return scheduled_ - queued_; }

  protected:
    /**
     * Schedule @p spec to leave @p node at cycle @p when; @p token
     * (non-zero) identifies the send in the onToken* callbacks.
     * When called from inside a notification hook observing cycle t,
     * @p when must be at least t+1 (asserted): reacting in the same
     * cycle would make results depend on component step order.
     *
     * Tokens must be unique among pending sends and *mode
     * independent*: two emissions for the same node at the same cycle
     * are handed to the NIC in token order, because the oracle and
     * the fast path do not share intra-cycle hook arrival order.
     * Derive tokens from the logical operation (trace event index,
     * per-group sequence number, ...), never from a counter bumped in
     * hook order across independent dependency chains.
     */
    void scheduleSend(NodeId node, Cycle when, MessageSpec spec,
                      std::uint64_t token);

    /** The send tagged @p token fully retired at cycle @p now. */
    virtual void onTokenCompleted(std::uint64_t token, Cycle now) = 0;

  private:
    struct Emission
    {
        Cycle when = 0;
        MessageSpec spec; // spec.token breaks when-ties
    };
    struct Later
    {
        bool
        operator()(const Emission &a, const Emission &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            // The token, not schedule order: two same-cycle releases
            // may be scheduled by hooks whose arrival order the two
            // scheduler modes do not share.
            return a.spec.token > b.spec.token;
        }
    };
    using EmissionQueue =
        std::priority_queue<Emission, std::vector<Emission>, Later>;

    std::vector<EmissionQueue> queues_;
    std::unordered_map<MsgId, std::uint64_t> tokenOf_;
    std::size_t queued_ = 0;
    std::size_t scheduled_ = 0;

    /** Release-rule bookkeeping: set while dispatching a hook. */
    bool inHook_ = false;
    Cycle hookCycle_ = 0;
};

} // namespace mdw

#endif // MDW_WORKLOAD_CLOSED_LOOP_HH
