#include "workload/traffic.hh"

#include "sim/logging.hh"

namespace mdw {

const char *
toString(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::UniformUnicast:
        return "uniform-unicast";
      case TrafficPattern::MultipleMulticast:
        return "multiple-multicast";
      case TrafficPattern::Bimodal:
        return "bimodal";
      case TrafficPattern::HotSpot:
        return "hot-spot";
    }
    return "?";
}

const char *
toString(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Synthetic:
        return "synthetic";
      case WorkloadKind::Collective:
        return "collective";
      case WorkloadKind::Trace:
        return "trace";
    }
    return "?";
}

const char *
toString(CollectiveOp op)
{
    switch (op) {
      case CollectiveOp::Barrier:
        return "barrier";
      case CollectiveOp::Allreduce:
        return "allreduce";
      case CollectiveOp::Invalidate:
        return "invalidate";
    }
    return "?";
}

SyntheticTraffic::SyntheticTraffic(std::size_t numHosts,
                                   const WorkloadParams &params)
    : numHosts_(numHosts), params_(params)
{
    MDW_ASSERT(numHosts >= 2, "traffic needs at least two hosts");
    MDW_ASSERT(params.payloadFlits > 0, "payload must be positive");
    MDW_ASSERT(params.load >= 0.0, "negative load");
    MDW_ASSERT(params.hotFraction >= 0.0 && params.hotFraction <= 1.0,
               "hot-spot fraction out of [0,1]");
    MDW_ASSERT(params.hotNode >= 0 &&
                   static_cast<std::size_t>(params.hotNode) < numHosts,
               "hot node %d out of range", params.hotNode);
    const bool multicasts =
        params.pattern == TrafficPattern::MultipleMulticast ||
        (params.pattern == TrafficPattern::Bimodal &&
         params.mcastFraction > 0.0);
    MDW_ASSERT(!multicasts ||
                   (params.mcastDegree >= 1 &&
                    static_cast<std::size_t>(params.mcastDegree) <
                        numHosts),
               "multicast degree %d invalid for %zu hosts",
               params.mcastDegree, numHosts);
    MDW_ASSERT(params.mcastFraction >= 0.0 &&
                   params.mcastFraction <= 1.0,
               "multicast fraction out of [0,1]");

    rate_ = params.load / static_cast<double>(params.payloadFlits);
    MDW_ASSERT(rate_ <= 1.0, "per-node message rate %f > 1/cycle",
               rate_);

    Rng root(params.seed);
    nodes_.resize(numHosts);
    for (std::size_t i = 0; i < numHosts; ++i)
        nodes_[i].rng = root.fork(i + 1000);
}

void
SyntheticTraffic::poll(NodeId node, Cycle now,
                       std::vector<MessageSpec> &out)
{
    if (rate_ <= 0.0 || now < params_.startCycle ||
        now >= params_.stopCycle)
        return;
    NodeState &state = nodes_.at(static_cast<std::size_t>(node));
    if (!state.started) {
        state.started = true;
        state.next =
            params_.startCycle + state.rng.geometricGap(rate_) - 1;
    }
    while (state.next <= now) {
        out.push_back(makeSpec(state, node));
        ++generated_;
        state.next += state.rng.geometricGap(rate_);
    }
}

Cycle
SyntheticTraffic::nextArrival(NodeId node, Cycle now)
{
    if (rate_ <= 0.0)
        return kNoCycle;
    const NodeState &state =
        nodes_.at(static_cast<std::size_t>(node));
    if (!state.started) {
        // The RNG must not be touched here: the first gap is drawn by
        // the first poll() at or after startCycle, exactly as on the
        // always-polled path.
        return params_.startCycle < params_.stopCycle
                   ? params_.startCycle
                   : kNoCycle;
    }
    if (state.next >= params_.stopCycle)
        return kNoCycle;
    // Defensive: an overdue arrival keeps the caller polling.
    return state.next < now ? now : state.next;
}

MessageSpec
SyntheticTraffic::makeSpec(NodeState &state, NodeId self)
{
    MessageSpec spec;
    spec.payloadFlits = params_.payloadFlits;
    bool multicast = false;
    switch (params_.pattern) {
      case TrafficPattern::UniformUnicast:
        multicast = false;
        break;
      case TrafficPattern::MultipleMulticast:
        multicast = true;
        break;
      case TrafficPattern::Bimodal:
        multicast = state.rng.chance(params_.mcastFraction);
        break;
      case TrafficPattern::HotSpot:
        multicast = false;
        break;
    }
    spec.multicast = multicast;
    if (multicast) {
        spec.dests = randomDests(state, self, params_.mcastDegree);
        spec.trafficClass = params_.mcastClass;
    } else if (params_.pattern == TrafficPattern::HotSpot &&
               self != params_.hotNode &&
               state.rng.chance(params_.hotFraction)) {
        spec.dest = params_.hotNode;
    } else {
        spec.dest = randomOther(state, self);
    }
    return spec;
}

NodeId
SyntheticTraffic::randomOther(NodeState &state, NodeId self)
{
    // Uniform over the other numHosts-1 nodes.
    auto pick = static_cast<NodeId>(state.rng.below(numHosts_ - 1));
    if (pick >= self)
        ++pick;
    return pick;
}

DestSet
SyntheticTraffic::randomDests(NodeState &state, NodeId self, int degree)
{
    DestSet dests(numHosts_);
    int placed = 0;
    while (placed < degree) {
        const NodeId pick = randomOther(state, self);
        if (!dests.test(pick)) {
            dests.set(pick);
            ++placed;
        }
    }
    return dests;
}

void
ScriptedTraffic::post(Cycle when, NodeId node, MessageSpec spec)
{
    script_[node][when].push_back(std::move(spec));
    ++pending_;
}

Cycle
ScriptedTraffic::nextArrival(NodeId node, Cycle now)
{
    const auto it = script_.find(node);
    if (it == script_.end() || it->second.empty())
        return kNoCycle;
    const Cycle when = it->second.begin()->first;
    // Defensive: an overdue posting keeps the caller polling.
    return when < now ? now : when;
}

void
ScriptedTraffic::poll(NodeId node, Cycle now,
                      std::vector<MessageSpec> &out)
{
    const auto it = script_.find(node);
    if (it == script_.end())
        return;
    auto &byCycle = it->second;
    while (!byCycle.empty() && byCycle.begin()->first <= now) {
        for (MessageSpec &spec : byCycle.begin()->second) {
            out.push_back(std::move(spec));
            --pending_;
        }
        byCycle.erase(byCycle.begin());
    }
    if (byCycle.empty())
        script_.erase(it);
}

} // namespace mdw
