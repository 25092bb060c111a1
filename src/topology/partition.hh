/**
 * @file
 * Deterministic switch partitioning for the sharded scheduler.
 *
 * The partitioner assigns every switch to one of `shards` shards so
 * that (a) host load is balanced — edge switches are distributed by
 * cumulative attached-host count — and (b) boundary traffic is kept
 * low — interior switches join the shard the majority of their
 * already-assigned neighbors belong to (a few label-propagation
 * sweeps). The result is a pure function of the graph and the shard
 * count: no randomness, no iteration-order dependence, so a given
 * (topology, shards) pair always produces the same plan.
 *
 * The plan only affects *how* the simulator schedules switch steps;
 * results are bit-identical for every plan, so partition quality is a
 * performance knob, not a correctness one.
 */

#ifndef MDW_TOPOLOGY_PARTITION_HH
#define MDW_TOPOLOGY_PARTITION_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "topology/graph.hh"

namespace mdw {

/** A shard assignment for every switch of a topology. */
struct ShardPlan
{
    /** Parallel shards the plan was built for (>= 1). */
    std::size_t shards = 1;
    /** Shard of each switch, indexed by switch id. */
    std::vector<std::uint32_t> switchShard;

    /** Switches assigned to shard @p s. */
    std::size_t countIn(std::uint32_t s) const;
};

/**
 * Partition @p graph into @p shards shards. shards == 1 (or an empty
 * graph) degenerates to everything-in-shard-0; shards may exceed the
 * switch count (the surplus shards stay empty).
 */
ShardPlan makeShardPlan(const PortGraph &graph, std::size_t shards);

} // namespace mdw

#endif // MDW_TOPOLOGY_PARTITION_HH
