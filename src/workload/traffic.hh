/**
 * @file
 * Synthetic traffic generators for the paper's evaluation workloads:
 * uniform unicast, multiple multicast (every node issues random
 * degree-d multicasts), and bimodal (a unicast background with a
 * fraction of multicast messages).
 */

#ifndef MDW_WORKLOAD_TRAFFIC_HH
#define MDW_WORKLOAD_TRAFFIC_HH

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "host/workload.hh"
#include "sim/rng.hh"

namespace mdw {

/** Which synthetic workload to generate. */
enum class TrafficPattern
{
    UniformUnicast,
    MultipleMulticast,
    Bimodal,
    /**
     * Unicast background in which a fraction of messages target one
     * hot node (the paper's future-work traffic class).
     */
    HotSpot,
};

const char *toString(TrafficPattern pattern);

/** Which family of workload an experiment drives. */
enum class WorkloadKind
{
    /** Open-loop Bernoulli arrivals (the paper's evaluation mode). */
    Synthetic,
    /** Closed-loop collective kernels (workload/kernels.hh). */
    Collective,
    /** Trace replay, optionally dependency-carrying (workload/trace.hh). */
    Trace,
};

const char *toString(WorkloadKind kind);

/** Which collective kernel a Collective workload iterates. */
enum class CollectiveOp
{
    /** Gather-to-root control messages, then a multicast release. */
    Barrier,
    /** Reduce tree to the root, then a payload-carrying multicast. */
    Allreduce,
    /** A rotating owner multicasts invalidations to the sharers. */
    Invalidate,
};

const char *toString(CollectiveOp op);

/** Parameters of a generated workload (all kinds). */
struct WorkloadParams
{
    WorkloadKind kind = WorkloadKind::Synthetic;

    // --- Synthetic (open-loop) -------------------------------------
    TrafficPattern pattern = TrafficPattern::MultipleMulticast;
    /**
     * Offered load in *payload* flits per node per cycle, counting
     * each message once at its source (a multicast's fan-out
     * multiplies delivered, not offered, load).
     */
    double load = 0.1;
    /** Payload flits per message. */
    int payloadFlits = 64;
    /** Destinations per multicast. */
    int mcastDegree = 8;
    /** Fraction of messages that are multicast (Bimodal only). */
    double mcastFraction = 0.1;
    /**
     * Traffic class stamped on generated multicasts (unicasts stay
     * class 0). Set to 1 so a bimodal workload routes its multicast
     * foreground on the latency-sensitive lane partition. Default 0
     * keeps single-class behavior.
     */
    int mcastClass = 0;
    /** Fraction of messages aimed at the hot node (HotSpot only). */
    double hotFraction = 0.2;
    /** The hot node (HotSpot only). */
    NodeId hotNode = 0;
    std::uint64_t seed = 42;
    /** Generation starts at this cycle. */
    Cycle startCycle = 0;
    /** Generation stops at this cycle (kNoCycle = never). */
    Cycle stopCycle = kNoCycle;

    // --- Collective (closed-loop) ----------------------------------
    CollectiveOp collective = CollectiveOp::Allreduce;
    /** Iterations per communicator group. */
    int rounds = 8;
    /** Independent communicator groups (multi-tenant when > 1). */
    int groups = 1;
    /**
     * Members per group: 0 = every host (single group) or a
     * heavy-tailed random size per group (multi-tenant); >= 2 fixes
     * the size. Membership is drawn from `seed`.
     */
    int groupSize = 0;
    /** Think-time cycles between a round's completion and the next. */
    Cycle think = 0;

    // --- Trace replay ----------------------------------------------
    /** Trace file to replay (workload.kind=trace). */
    std::string tracePath;
};

/** Open-loop Bernoulli-arrival workload generator. */
class SyntheticTraffic : public Workload
{
  public:
    SyntheticTraffic(std::size_t numHosts, const WorkloadParams &params);

    void poll(NodeId node, Cycle now,
              std::vector<MessageSpec> &out) override;

    Cycle nextArrival(NodeId node, Cycle now) override;

    /** Message arrivals per node per cycle implied by the load. */
    double messageRate() const { return rate_; }

    /** Messages generated so far across all nodes. */
    std::uint64_t generated() const { return generated_; }

  private:
    struct NodeState
    {
        Rng rng{1};
        Cycle next = kNoCycle;
        bool started = false;
    };

    MessageSpec makeSpec(NodeState &state, NodeId self);
    NodeId randomOther(NodeState &state, NodeId self);
    DestSet randomDests(NodeState &state, NodeId self, int degree);

    std::size_t numHosts_;
    WorkloadParams params_;
    double rate_;
    std::vector<NodeState> nodes_;
    std::uint64_t generated_ = 0;
};

/**
 * Deterministic scripted workload for tests and examples: an explicit
 * list of (cycle, node, message) postings.
 */
class ScriptedTraffic : public Workload
{
  public:
    /** Schedule @p spec to be posted by @p node at cycle @p when. */
    void post(Cycle when, NodeId node, MessageSpec spec);

    void poll(NodeId node, Cycle now,
              std::vector<MessageSpec> &out) override;

    /** Exact per-node lookup (O(log n)): the fast path sleeps the
     *  NIC straight through to its next scripted posting. */
    Cycle nextArrival(NodeId node, Cycle now) override;

    bool exhausted() const override { return pending_ == 0; }

    /** Postings not yet handed out. */
    std::size_t pending() const { return pending_; }

  private:
    /** Per node, postings keyed by cycle. */
    std::map<NodeId, std::map<Cycle, std::vector<MessageSpec>>> script_;
    std::size_t pending_ = 0;
};

/**
 * Several workloads sharing one network, e.g. a closed-loop collective
 * over an open-loop background. Each NIC polls the children in the
 * order given, so the first child's specs are posted first in a cycle;
 * every notification reaches every child (each ignores messages it did
 * not emit, so closed-loop children need disjoint tokens); a child's
 * wake() reaches the network the mix is attached to. The children
 * must outlive the mix.
 */
class WorkloadMix : public Workload
{
  public:
    explicit WorkloadMix(std::vector<Workload *> children)
        : children_(std::move(children))
    {
        for (Workload *child : children_)
            child->setWakeHook(
                [this](NodeId node, Cycle when) { wake(node, when); });
    }

    ~WorkloadMix() override
    {
        for (Workload *child : children_)
            child->setWakeHook(nullptr);
    }

    void
    poll(NodeId node, Cycle now, std::vector<MessageSpec> &out) override
    {
        for (Workload *child : children_)
            child->poll(node, now, out);
    }

    Cycle
    nextArrival(NodeId node, Cycle now) override
    {
        Cycle earliest = kNoCycle;
        for (Workload *child : children_)
            earliest = std::min(earliest, child->nextArrival(node, now));
        return earliest;
    }

    void
    onPosted(NodeId src, std::uint64_t token, MsgId msg,
             Cycle now) override
    {
        for (Workload *child : children_)
            child->onPosted(src, token, msg, now);
    }

    void
    onCompleted(MsgId msg, NodeId src, Cycle now) override
    {
        for (Workload *child : children_)
            child->onCompleted(msg, src, now);
    }

    bool
    exhausted() const override
    {
        return std::all_of(
            children_.begin(), children_.end(),
            [](const Workload *child) { return child->exhausted(); });
    }

  private:
    std::vector<Workload *> children_;
};

} // namespace mdw

#endif // MDW_WORKLOAD_TRAFFIC_HH
