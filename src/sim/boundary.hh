/**
 * @file
 * Interfaces between boundary-mode channels and the sharded
 * scheduler. Split out of sim/system.hh so sim/channel.hh can attach
 * to the registrar without pulling in the Simulator's definition.
 */

#ifndef MDW_SIM_BOUNDARY_HH
#define MDW_SIM_BOUNDARY_HH

#include <cstddef>
#include <cstdint>

namespace mdw {

/**
 * A channel operating in boundary mode, as its sending shard reports
 * it: its sends are buffered into a mailbox instead of touching the
 * receiver-visible queue, and the simulator drains the mailbox at the
 * cycle barrier (in deterministic shard/registration order) by
 * calling flush(channel). A plain function pointer rather than a
 * virtual base keeps the channels themselves free of a vtable.
 */
struct BoundaryChannel
{
    void *channel;
    /** Move buffered sends into the receiver-visible queue and apply
     *  the deferred sink wakes. Returns the number of items moved. */
    std::size_t (*flush)(void *channel);
};

/**
 * Who a boundary channel reports its first buffered send of a cycle
 * to. Implemented by the Simulator.
 */
class BoundaryRegistrar
{
  public:
    virtual ~BoundaryRegistrar() = default;

    /** Called (once per dirty episode) by the sending shard. */
    virtual void boundaryDirty(std::uint32_t srcShard,
                               BoundaryChannel channel) = 0;
};

} // namespace mdw

#endif // MDW_SIM_BOUNDARY_HH
