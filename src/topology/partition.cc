#include "topology/partition.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace mdw {

std::size_t
ShardPlan::countIn(std::uint32_t s) const
{
    return static_cast<std::size_t>(
        std::count(switchShard.begin(), switchShard.end(), s));
}

namespace {

constexpr std::uint32_t kUnassigned = ~0u;

/** Hosts attached (inject or eject side) to each switch. */
std::vector<std::size_t>
hostLoad(const PortGraph &graph)
{
    std::vector<std::size_t> load(graph.numSwitches(), 0);
    for (SwitchId sw = 0;
         sw < static_cast<SwitchId>(graph.numSwitches()); ++sw) {
        for (PortId p = 0; p < static_cast<PortId>(graph.radix(sw));
             ++p) {
            if (graph.peer(sw, p).isHost())
                ++load[static_cast<std::size_t>(sw)];
        }
    }
    return load;
}

} // namespace

ShardPlan
makeShardPlan(const PortGraph &graph, std::size_t shards)
{
    MDW_ASSERT(shards >= 1, "partition needs at least one shard");
    const std::size_t numSwitches = graph.numSwitches();

    ShardPlan plan;
    plan.shards = shards;
    plan.switchShard.assign(numSwitches, 0);
    if (shards == 1 || numSwitches == 0)
        return plan;

    // Pass 1: spread the edge switches (the ones hosts attach to)
    // over the shards in id order, cutting by cumulative host count
    // so every shard serves about the same number of hosts.
    const std::vector<std::size_t> load = hostLoad(graph);
    std::size_t totalHosts = 0;
    for (std::size_t l : load)
        totalHosts += l;
    std::fill(plan.switchShard.begin(), plan.switchShard.end(),
              kUnassigned);
    std::size_t hostsBefore = 0;
    std::size_t edgeSeen = 0;
    std::size_t edgeCount = 0;
    for (std::size_t l : load)
        edgeCount += l > 0 ? 1 : 0;
    for (std::size_t sw = 0; sw < numSwitches; ++sw) {
        if (load[sw] == 0)
            continue;
        std::size_t shard;
        if (totalHosts > 0) {
            shard = hostsBefore * shards / totalHosts;
        } else {
            shard = edgeSeen * shards / (edgeCount ? edgeCount : 1);
        }
        plan.switchShard[sw] = static_cast<std::uint32_t>(
            std::min(shard, shards - 1));
        hostsBefore += load[sw];
        ++edgeSeen;
    }

    // Pass 2: pull interior switches towards the shard most of their
    // assigned neighbors sit in (ties break to the smallest shard
    // id). A few sweeps propagate labels up multi-stage topologies;
    // anything still unreached (disconnected interior) falls back to
    // id % shards.
    std::vector<std::size_t> votes(shards, 0);
    for (int sweep = 0; sweep < 4; ++sweep) {
        bool changed = false;
        for (std::size_t sw = 0; sw < numSwitches; ++sw) {
            if (plan.switchShard[sw] != kUnassigned)
                continue;
            std::fill(votes.begin(), votes.end(), 0);
            bool any = false;
            const int radix = graph.radix(static_cast<SwitchId>(sw));
            for (PortId p = 0; p < static_cast<PortId>(radix); ++p) {
                const PortPeer &peer =
                    graph.peer(static_cast<SwitchId>(sw), p);
                if (!peer.isSwitch())
                    continue;
                const std::uint32_t neighbor =
                    plan.switchShard[static_cast<std::size_t>(
                        peer.sw)];
                if (neighbor == kUnassigned)
                    continue;
                ++votes[neighbor];
                any = true;
            }
            if (!any)
                continue;
            const auto best =
                std::max_element(votes.begin(), votes.end());
            plan.switchShard[sw] = static_cast<std::uint32_t>(
                best - votes.begin());
            changed = true;
        }
        if (!changed)
            break;
    }
    for (std::size_t sw = 0; sw < numSwitches; ++sw) {
        if (plan.switchShard[sw] == kUnassigned) {
            plan.switchShard[sw] =
                static_cast<std::uint32_t>(sw % shards);
        }
    }

    return plan;
}

} // namespace mdw
