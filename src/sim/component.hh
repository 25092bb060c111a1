/**
 * @file
 * Base class for clocked simulation components.
 */

#ifndef MDW_SIM_COMPONENT_HH
#define MDW_SIM_COMPONENT_HH

#include <cstddef>
#include <string>
#include <utility>

#include "sim/types.hh"

namespace mdw {

class Simulator;

/**
 * A clocked component. The Simulator calls step() exactly once per
 * cycle on every registered component; all inter-component state
 * exchange must flow through delay-stamped channels so the call order
 * cannot affect results.
 *
 * Under the fast path (Simulator::setFastPath) idle components are
 * retired from the per-cycle tick set: once per
 * Simulator::kRetireStride cycles the kernel asks nextWork() for the
 * earliest future cycle at which the component could do anything
 * observable, and only re-steps it from that cycle on (or earlier, if
 * someone calls requestWake()). A component may answer
 * conservatively -- being stepped while idle must always be a no-op --
 * but must never answer late: sleeping through a cycle where it would
 * have moved state breaks the bit-identity guarantee against the
 * always-stepped path.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Advance this component by one cycle. */
    virtual void step(Cycle now) = 0;

    /**
     * Earliest future cycle (> @p now) at which this component may
     * have work, or kNoCycle to sleep until an external requestWake().
     * Called by the fast-path kernel after the component was stepped
     * at @p now. The default keeps legacy components ticking every
     * cycle, which is always correct.
     */
    virtual Cycle
    nextWork(Cycle now)
    {
        return now + 1;
    }

    /**
     * Ask the kernel to step this component at cycle @p when (clamped
     * to the current cycle). No-op on the always-stepped path and for
     * unregistered components, so producers may call it
     * unconditionally.
     *
     * The hot early-out: while the component is in the tick set the
     * retire pass re-evaluates nextWork() anyway, so the wake carries
     * no information — skip the kernel call entirely. The flag stays
     * set on the always-stepped path and for unregistered components,
     * where wake() would be a no-op too.
     */
    void
    requestWake(Cycle when)
    {
        if (schedActive_)
            return;
        requestWakeSlow(when);
    }

    /** Diagnostic name. */
    const std::string &name() const { return name_; }

    /** Called by the Simulator when the component is registered. */
    void attach(Simulator *sim) { sim_ = sim; }

  protected:
    /** Owning simulator (valid after registration). */
    Simulator *sim_ = nullptr;

  private:
    friend class Simulator;

    void requestWakeSlow(Cycle when);

    std::string name_;
    /** Index in the owning Simulator's registration order. */
    std::size_t simIndex_ = 0;
    /**
     * True while this component is in its simulator's per-cycle tick
     * set (always true on the cycle path and before registration).
     * Maintained by the Simulator; read by requestWake()'s early-out.
     */
    char schedActive_ = 1;
};

} // namespace mdw

#endif // MDW_SIM_COMPONENT_HH
