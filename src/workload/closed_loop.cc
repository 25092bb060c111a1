#include "workload/closed_loop.hh"

#include "sim/logging.hh"

namespace mdw {

ClosedLoopWorkload::ClosedLoopWorkload(std::size_t numHosts)
    : queues_(numHosts)
{
    MDW_ASSERT(numHosts >= 2,
               "closed-loop workload needs at least two hosts");
}

void
ClosedLoopWorkload::poll(NodeId node, Cycle now,
                         std::vector<MessageSpec> &out)
{
    auto &queue = queues_.at(static_cast<std::size_t>(node));
    while (!queue.empty() && queue.top().when <= now) {
        out.push_back(queue.top().spec);
        queue.pop();
        --queued_;
    }
}

Cycle
ClosedLoopWorkload::nextArrival(NodeId node, Cycle now)
{
    const auto &queue = queues_.at(static_cast<std::size_t>(node));
    if (queue.empty())
        return kNoCycle;
    // Defensive: an overdue emission keeps the caller polling.
    return queue.top().when < now ? now : queue.top().when;
}

void
ClosedLoopWorkload::onPosted(NodeId src, std::uint64_t token,
                             MsgId msg, Cycle now)
{
    (void)src;
    (void)now;
    if (token == 0)
        return;
    const bool inserted = tokenOf_.emplace(msg, token).second;
    MDW_ASSERT(inserted, "message %llu posted twice",
               static_cast<unsigned long long>(msg));
}

void
ClosedLoopWorkload::onCompleted(MsgId msg, NodeId src, Cycle now)
{
    (void)src;
    const auto it = tokenOf_.find(msg);
    if (it == tokenOf_.end())
        return; // not ours
    const std::uint64_t token = it->second;
    tokenOf_.erase(it);
    inHook_ = true;
    hookCycle_ = now;
    onTokenCompleted(token, now);
    inHook_ = false;
}

void
ClosedLoopWorkload::scheduleSend(NodeId node, Cycle when,
                                 MessageSpec spec, std::uint64_t token)
{
    MDW_ASSERT(node >= 0 &&
                   static_cast<std::size_t>(node) < queues_.size(),
               "scheduleSend: node %d out of range", node);
    MDW_ASSERT(token != 0, "scheduleSend needs a non-zero token");
    MDW_ASSERT(!inHook_ || when > hookCycle_,
               "release rule violated: emission at cycle %llu "
               "scheduled from a hook observing cycle %llu",
               static_cast<unsigned long long>(when),
               static_cast<unsigned long long>(hookCycle_));
    spec.token = token;
    Emission emission;
    emission.when = when;
    emission.spec = std::move(spec);
    queues_[static_cast<std::size_t>(node)].push(std::move(emission));
    ++queued_;
    ++scheduled_;
    wake(node, when);
}

} // namespace mdw
