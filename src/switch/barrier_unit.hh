/**
 * @file
 * In-switch barrier combining (the paper's stated future work,
 * developed in the authors' companion IPPS'97 reliable-hardware-
 * barrier paper, reference [34]).
 *
 * A barrier group is mapped onto a combining tree over the switches:
 * every member NIC emits a tiny BarrierArrive token; a switch on the
 * tree absorbs tokens from its configured set of arrival ports and,
 * once all have shown up, emits a single combined token toward its
 * tree parent. The root switch, instead of forwarding, originates
 * the release — an ordinary multidestination worm to all members —
 * so the gather costs one token per tree hop instead of one
 * software message per member.
 *
 * This header holds the per-switch combining state machine; the
 * planner that computes the tree lives in core/hw_barrier.hh (it
 * needs the whole topology), and the CentralBufferSwitch hosts the
 * unit (the SP-Switch-style architecture the companion paper
 * targets).
 */

#ifndef MDW_SWITCH_BARRIER_UNIT_HH
#define MDW_SWITCH_BARRIER_UNIT_HH

#include <map>
#include <set>
#include <vector>

#include "message/packet.hh"
#include "sim/types.hh"

namespace mdw {

/** Combining-tree role of one switch for one barrier group. */
struct BarrierSwitchEntry
{
    /** Input ports an arrival token is expected from each round. */
    std::vector<PortId> expectedPorts;
    /** True at the combining root (emits the release multicast). */
    bool isRoot = false;
    /** Tree parent's port (up port token is forwarded on). */
    PortId upPort = kInvalidPort;
};

/** Per-switch barrier combining state for all groups. */
class BarrierUnit
{
  public:
    /** What the unit asks the switch to emit after combining. */
    struct Emit
    {
        /** Group whose combining completed. */
        int group = -1;
        /** True: originate the release; false: forward one token. */
        bool release = false;
        /** Output port for a forwarded token. */
        PortId upPort = kInvalidPort;
    };

    /** Install (or replace) a group's combining role. */
    void configure(int group, BarrierSwitchEntry entry);

    /** True if this switch participates in @p group. */
    bool participates(int group) const;

    /**
     * Absorb an arrival token for @p group seen on input @p port.
     * Returns an Emit action when the combining set completed (the
     * state resets for the next round), or std::nullopt-like
     * (group = -1) otherwise.
     */
    Emit onArrive(int group, PortId port);

    /** Tokens currently combined and waiting for peers (tests). */
    std::size_t pendingArrivals(int group) const;

  private:
    struct GroupState
    {
        BarrierSwitchEntry entry;
        std::set<PortId> arrived;
    };

    std::map<int, GroupState> groups_;
};

} // namespace mdw

#endif // MDW_SWITCH_BARRIER_UNIT_HH
