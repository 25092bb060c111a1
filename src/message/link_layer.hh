/**
 * @file
 * Link-level reliability (the transient-fault subsystem's data path).
 *
 * One LinkLayer guards one direction of one switch-switch link. It
 * attaches to the direction's flit Channel as a ChannelHook and
 * models a go-back-N ARQ protocol *analytically*: when the switch
 * puts a flit on the wire, the layer resolves every corruption, NAK,
 * replay and flap-outage round-trip at send time into one final
 * arrival cycle (or a drop, once the link has escalated to
 * fail-stop). Because the resolved arrival flows through the
 * channel's ordinary ready-queue and wake-sink plumbing, retry timers
 * and flap wakeups need no extra stepped component — the idle-skipping
 * fast path stays bit-identical to the cycle-accurate oracle for
 * free.
 *
 * Protocol model:
 *  - every wire traversal is sealed with a per-link sequence number
 *    and a CRC-16 over the flit identity (Flit::seal); the receiver
 *    side of the hook re-checks both on delivery;
 *  - a corrupted traversal (per-flit Bernoulli at the configured BER)
 *    is detected by the link CRC and NAKed; the sender replays after
 *    one round-trip. With probability `residual` the corruption
 *    collides with the CRC instead and the flit is accepted — the
 *    replication branch is tainted and the NIC's end-to-end payload
 *    checksum catches it at delivery;
 *  - a traversal departing inside a flap window is lost outright; the
 *    sender's retry timer (one round-trip plus guard) expires and it
 *    replays, riding out windows shorter than the retry budget;
 *  - the sender keeps at most `replayBufferFlits` unacked flits; a
 *    full replay buffer stalls the next departure until the oldest
 *    cumulative ack returns;
 *  - `retryLimit` failed attempts for one flit exhaust the retry
 *    budget: the layer reports the link for escalation to a
 *    fail-stop LinkDown (handled by the resilience layer's rerouting
 *    and tombstone machinery), poisons the packet it was carrying,
 *    and drops every later send.
 *
 * NAKs and acks travel on the (modeled) protected control channel and
 * are never themselves corrupted, matching real link layers that
 * protect control symbols more heavily than data.
 */

#ifndef MDW_MESSAGE_LINK_LAYER_HH
#define MDW_MESSAGE_LINK_LAYER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "message/flit.hh"
#include "sim/channel.hh"
#include "sim/fault.hh"
#include "sim/ring.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"

namespace mdw {

/** Reliability knobs of one link direction (config: link.*). */
struct LinkLayerParams
{
    /** Per-flit per-traversal corruption probability. */
    double ber = 0.0;
    /** P(corruption evades the link CRC | corrupted). */
    double residual = 0.0;
    /** Transmission attempts per flit before fail-stop escalation. */
    int retryLimit = 16;
    /** Unacked flits the sender may hold for replay. */
    int replayBufferFlits = 16;
};

/** Per-direction reliability counters. */
struct LinkLayerStats
{
    /** Wire traversals corrupted by the error process. */
    Counter corrupted;
    /** Corruptions detected by the link CRC (receiver NAKed). */
    Counter naks;
    /** Re-transmissions (NAK- or timeout-triggered). */
    Counter replays;
    /** Traversals lost in a flap window (sender timed out). */
    Counter timeouts;
    /** Corruptions that evaded the CRC (caught end-to-end only). */
    Counter residualErrors;
    /** Cycles departures stalled on a full replay buffer. */
    Counter replayStallCycles;
    /** Sends discarded because the link had escalated. */
    Counter dropped;
};

/** ARQ state machine for one direction of one switch-switch link. */
class LinkLayer : public ChannelHook<Flit>
{
  public:
    /** Called once when the retry budget is exhausted, with the cycle
     *  the failure was detected; must schedule the fail-stop. */
    using EscalateFn = std::function<void(Cycle)>;

    /**
     * @param name Diagnostic name (the guarded channel's name).
     * @param sw,port Sender-side endpoint (trace identity).
     * @param delay One-way wire delay of the guarded channel.
     * @param seed Private corruption-draw stream (Rng::streamSeed).
     */
    LinkLayer(std::string name, SwitchId sw, int port, Cycle delay,
              const LinkLayerParams &params, std::uint64_t seed);

    /** Flap windows affecting this link (both directions share). */
    void setFlaps(std::vector<FlapWindow> flaps);

    /** Poison registry for packets lost to escalation (shared with
     *  the resilience layer; may be null). */
    void setPoisonRegistry(std::unordered_set<PacketId> *poisoned)
    {
        poisoned_ = poisoned;
    }

    void setEscalation(EscalateFn fn) { escalate_ = std::move(fn); }

    /** Register counters under @p scope and pick up the tracer. */
    void attachTelemetry(Telemetry &telemetry,
                         MetricsRegistry::ScopeId scope);

    // --- ChannelHook ------------------------------------------------
    Cycle onSend(Flit &flit, Cycle now) override;
    void onReceive(const Flit &flit) override;

    // --- Introspection (dump/diagnosis/tests) -----------------------
    const std::string &name() const { return name_; }
    const LinkLayerStats &stats() const { return stats_; }
    /** Unacked flits in the replay buffer as of the last send. */
    std::size_t replayOccupancy() const { return window_.size(); }
    /** Cycle the most recent NAK reached the sender, or kNoCycle. */
    Cycle lastNak() const { return lastNak_; }
    /** True once the retry budget escalated this link direction. */
    bool dead() const { return dead_; }
    /** Mark the direction dead (a fail-stop fault killed the link);
     *  later sends are dropped and their packets poisoned. */
    void markDead() { dead_ = true; }
    std::uint32_t txSeq() const { return txNextSeq_; }
    std::uint32_t rxSeq() const { return rxNextSeq_; }

    // --- Deterministic test seams -----------------------------------
    /** Corrupt the next @p n wire traversals regardless of BER. */
    void forceCorrupt(int n) { forcedCorrupt_ += n; }
    /** Make the next @p n corruptions evade the CRC (residual). */
    void forceResidual(int n) { forcedResidual_ += n; }

  private:
    /** Sender retry timeout: one round-trip plus detection guard. */
    Cycle timeout() const { return 2 * delay_ + 2; }
    bool inFlap(Cycle cycle, std::size_t *window) const;
    /** Drop acks that have returned by @p cycle (cumulative). */
    void popAcked(Cycle cycle);
    Cycle escalateAndDrop(const Flit &flit, Cycle when);
    Cycle drop(const Flit &flit);

    std::string name_;
    SwitchId sw_;
    int port_;
    Cycle delay_;
    LinkLayerParams params_;
    Rng rng_;
    std::vector<FlapWindow> flaps_;
    /** Flap windows already announced via a link_flap trace event. */
    std::vector<bool> flapTraced_;

    /** Ack-return cycles of unacked flits, oldest first. */
    Ring<Cycle> window_;
    /** Wire slot of the last successful departure. */
    Cycle lastDepart_ = kNoCycle;
    std::uint32_t txNextSeq_ = 0;
    std::uint32_t rxNextSeq_ = 0;
    Cycle lastNak_ = kNoCycle;
    bool dead_ = false;

    int forcedCorrupt_ = 0;
    int forcedResidual_ = 0;

    std::unordered_set<PacketId> *poisoned_ = nullptr;
    EscalateFn escalate_;
    WormTracer *tracer_ = nullptr;
    LinkLayerStats stats_;
};

} // namespace mdw

#endif // MDW_MESSAGE_LINK_LAYER_HH
