/**
 * @file
 * Reachability-based routing for multidestination worms.
 *
 * Every output port of a switch is classified "down" (toward hosts;
 * host ports included) or "up" (toward the root stage). Each down
 * port carries its down-reach: the hosts reachable from it using
 * down links only, stored as a sorted list of disjoint host intervals
 * [lo, hi). In a fat tree or UniMin every down port reaches one
 * contiguous subtree, so every list is a single interval; irregular
 * up*-down* trees use the same lists with more runs. Decoding a
 * worm's destination set splits it along those intervals: the same
 * result as the paper's bit-string decode, which ANDs the set with
 * an N-bit mask per port, without ever building such a mask.
 *
 * A worm travels up until all of its destinations are down-reachable
 * (the least-common-ancestor, LCA, stage) and replicates downward.
 * Two routing variants from the paper:
 *
 * - ReplicateAfterLca: no replication on the way up; the whole set
 *   rides to the LCA stage and all branching happens on the way down.
 * - ReplicateOnUpPath: while moving up, the worm additionally spawns
 *   branches for destinations already reachable below.
 */

#ifndef MDW_TOPOLOGY_ROUTING_HH
#define MDW_TOPOLOGY_ROUTING_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "message/dest_set.hh"
#include "sim/types.hh"

namespace mdw {

class PortGraph;

/** Port orientation in the (possibly virtual) routing tree. */
enum class PortDir { Down, Up, Unused };

const char *toString(PortDir dir);

/** How multidestination worms branch relative to the LCA stage. */
enum class RoutingVariant { ReplicateAfterLca, ReplicateOnUpPath };

const char *toString(RoutingVariant variant);

/** How a switch picks among equivalent up ports. */
enum class UpPortPolicy
{
    /** Hash of source and packet id selects one fixed up port. */
    Deterministic,
    /** Any currently free up port may be taken (first free wins). */
    Adaptive,
};

const char *toString(UpPortPolicy policy);

/**
 * Rotate an up-candidate index by the packet's virtual lane.
 *
 * Multi-lane switches give each lane its own preferred up link so
 * the adaptive up-path choice spreads over both links *and* lanes.
 * This stays deadlock-free for any lane assignment: routing remains
 * up-then-down on every lane (the lane never changes which ports are
 * "up"), so each lane's channel-dependency graph is the same acyclic
 * up/down DAG as the single-lane fabric — lanes multiply the escape
 * paths, they cannot close a cycle. Lane 0 is the identity, which
 * keeps lanes=1 routing bit-identical to the pre-lane switch.
 */
inline std::size_t
rotateUpCandidate(std::size_t hash, int lane, std::size_t candidates)
{
    return (hash + static_cast<std::size_t>(lane)) % candidates;
}

/** Half-open interval of host ids [lo, hi). */
struct HostRange
{
    NodeId lo = 0;
    NodeId hi = 0;
};

/** A sorted list of disjoint, non-adjacent host intervals. */
using HostRanges = std::span<const HostRange>;

/**
 * The output ports a worm must acquire at one switch.
 *
 * Move-only: upCandidates may view filteredUp, and a moved vector
 * keeps its buffer where a copied one would not.
 */
struct RouteDecision
{
    RouteDecision() = default;
    RouteDecision(RouteDecision &&) = default;
    RouteDecision &operator=(RouteDecision &&) = default;
    RouteDecision(const RouteDecision &) = delete;
    RouteDecision &operator=(const RouteDecision &) = delete;

    /** Down branches: (output port, pruned destination subset). */
    std::vector<std::pair<PortId, DestSet>> downBranches;
    /**
     * Candidate up ports (exactly one must be taken) if upDests: the
     * routing table's up ports, or filteredUp when a tolerant table
     * narrowed them to those that still serve upDests.
     */
    std::span<const PortId> upCandidates;
    /** Destination subset that continues upward (may be empty). */
    DestSet upDests;
    /**
     * Destinations with no legal path from this switch. Always empty
     * on an intact network (decode panics instead); only a tolerant
     * routing table — rebuilt around faults — reports them, and the
     * switch drops the corresponding branch so the worm keeps moving.
     */
    DestSet unroutable;
    /** Storage behind a tolerant table's narrowed upCandidates. */
    std::vector<PortId> filteredUp;

    bool needsUp() const { return !upDests.empty(); }
};

/**
 * Per-switch routing state.
 *
 * Every port's reach list lives in one flat range array with
 * per-port offsets, so a table costs a handful of allocations however
 * many hosts the network has.
 */
class SwitchRouting
{
  public:
    SwitchRouting(int radix, std::size_t num_hosts);

    /** Set a port's direction (default Unused). */
    void setDir(PortId port, PortDir dir);
    PortDir dir(PortId port) const;

    /**
     * Down-reach of a port (down ports only): sorted, disjoint,
     * non-adjacent intervals. Each port's reach is set at most once.
     */
    void setDownReach(PortId port, HostRanges reach);
    HostRanges downReach(PortId port) const;

    /**
     * Up-reach of a port (up ports only): the hosts still reachable
     * by going up this port and then routing freely. Only tolerant
     * tables carry these — on an intact network every up port reaches
     * everything, so the lists would be dead weight.
     */
    void setUpReach(PortId port, HostRanges reach);
    HostRanges upReach(PortId port) const;

    /** Union of every down port's reach. */
    HostRanges downUnion() const { return slice(downUnion_); }

    /** Number of hosts reachable through some down port. */
    std::size_t downReachCount() const;

    /** All up ports in index order. */
    const std::vector<PortId> &upPorts() const { return upPorts_; }

    int radix() const { return static_cast<int>(ports_.size()); }

    /** Size of the host universe the table routes over. */
    std::size_t numHosts() const { return numHosts_; }

    /**
     * Route a destination set. Every destination must be coverable,
     * i.e. either down-reachable here or the switch must have an up
     * port. @p variant controls branching below the LCA.
     */
    RouteDecision decode(const DestSet &dests,
                         RoutingVariant variant) const;

    /**
     * Tolerant tables report uncoverable destinations in
     * RouteDecision::unroutable instead of panicking (used for tables
     * rebuilt around failed components).
     */
    void setTolerant(bool tolerant) { tolerant_ = tolerant; }
    bool tolerant() const { return tolerant_; }

    /** Finalize internal caches once all ports are configured. */
    void freeze();

  private:
    /** A slice [begin, end) of ranges_. */
    struct Slice
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    struct PortState
    {
        PortDir dir = PortDir::Unused;
        Slice reach;
    };

    /**
     * What decode hands one down port: the part of its reach that no
     * lower-numbered down port covers. Down-reach lists may overlap
     * in irregular networks; the first down port wins, as in the
     * bit-string decode that subtracts each branch before the next.
     */
    struct DownSplit
    {
        PortId port;
        Slice ranges;
    };

    HostRanges slice(Slice s) const;
    Slice append(HostRanges ranges);
    void setReach(PortId port, PortDir dir, HostRanges reach);
    bool anyIn(const DestSet &dests, Slice s) const;
    /** True if every member of @p dests is in downUnion(). */
    bool allDownReachable(const DestSet &dests) const;
    /**
     * Add a down branch per port whose split holds some of @p dests,
     * in port order; clears each branched split from @p rest if
     * given.
     */
    void branch(const DestSet &dests, RouteDecision &out,
                DestSet *rest) const;
    /** Keep only up candidates that serve the decision's up-set. */
    void filterUpCandidates(RouteDecision &out) const;

    std::vector<PortState> ports_;
    /**
     * Every port's reach list, then the down union, then any split
     * that differs from its port's reach.
     */
    std::vector<HostRange> ranges_;
    Slice downUnion_;
    std::vector<PortId> upPorts_;
    std::vector<DownSplit> downSplits_;
    std::size_t numHosts_;
    bool frozen_ = false;
    bool tolerant_ = false;
};

/**
 * Routing state for a whole network, computed from a PortGraph plus a
 * per-port direction assignment by merging host intervals through
 * down links (memoized reverse-topological traversal; down links must
 * be acyclic, which holds for fat-trees and for up*-down*
 * orientations of irregular networks).
 */
class NetworkRouting
{
  public:
    /**
     * @param graph Validated network structure.
     * @param dirs dirs[s][p] is the direction of switch s port p.
     * @param tolerant Build tolerant per-switch tables (see
     *        SwitchRouting::setTolerant); used when rerouting around
     *        faults, where some hosts may genuinely be unreachable.
     */
    NetworkRouting(const PortGraph &graph,
                   const std::vector<std::vector<PortDir>> &dirs,
                   bool tolerant = false);

    const SwitchRouting &at(SwitchId sw) const;
    std::size_t numSwitches() const { return switches_.size(); }

  private:
    std::vector<SwitchRouting> switches_;
};

} // namespace mdw

#endif // MDW_TOPOLOGY_ROUTING_HH
