/**
 * @file
 * Round-robin arbitration primitives used by switch output ports and
 * the central-queue read/write ports, plus the virtual-lane
 * allocation policy shared by both switch architectures.
 */

#ifndef MDW_SWITCH_ARBITER_HH
#define MDW_SWITCH_ARBITER_HH

#include <cstdint>
#include <vector>

namespace mdw {

/** How a switch maps a packet's traffic class onto a virtual lane. */
enum class LaneAlloc
{
    /**
     * Each traffic class owns a fixed lane (the base lane of its
     * class partition). Deterministic and fully isolating: bulk
     * traffic can never occupy a latency-class lane buffer.
     */
    StaticClass,
    /**
     * Pick the least-backlogged lane *within* the packet's class
     * partition, per switch, at header-decode time. Classes still
     * never share a lane, so isolation holds; the extra lanes of a
     * partition absorb bursts.
     */
    Adaptive,
};

const char *toString(LaneAlloc alloc);

/** Number of traffic classes the lane partition distinguishes. */
inline constexpr int kLaneClasses = 2;

/** Most lanes a link may carry; config values above this clamp. */
inline constexpr int kMaxLanes = 8;

/**
 * First lane of @p trafficClass's partition when the link runs
 * @p lanes lanes. Class 0 (bulk) owns [0, ceil(lanes/2)); class 1
 * (latency-sensitive) owns [ceil(lanes/2), lanes). With lanes == 1
 * both classes collapse onto lane 0 — no isolation, identical to the
 * single-lane switch. Out-of-range classes clamp to the nearest
 * class so a stray tag degrades service instead of crashing.
 */
int laneClassBase(int lanes, int trafficClass);

/** Number of lanes in @p trafficClass's partition (>= 1). */
int laneClassSize(int lanes, int trafficClass);

/**
 * Classic rotating-priority arbiter over a fixed number of
 * requesters. After a grant, the granted requester becomes the
 * lowest-priority one, which gives per-requester fairness under
 * persistent contention.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(int requesters = 0);

    /** Reset to @p requesters inputs, priority starting at 0. */
    void resize(int requesters);

    /**
     * Grant the requester (indices in @p requesters, in any order)
     * that comes first in round-robin order after the last grant.
     * Returns the granted index and rotates priority, or -1 if the
     * list is empty.
     */
    int grantFrom(const std::vector<int> &requesters);

    int size() const { return size_; }

    /** Grants ever issued (telemetry). */
    std::uint64_t totalGrants() const { return grants_; }

  private:
    int size_ = 0;
    int last_ = -1;
    std::uint64_t grants_ = 0;
};

} // namespace mdw

#endif // MDW_SWITCH_ARBITER_HH
