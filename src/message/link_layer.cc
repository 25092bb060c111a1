#include "message/link_layer.hh"

#include "sim/logging.hh"

namespace mdw {

LinkLayer::LinkLayer(std::string name, SwitchId sw, int port,
                     Cycle delay, const LinkLayerParams &params,
                     std::uint64_t seed)
    : name_(std::move(name)), sw_(sw), port_(port), delay_(delay),
      params_(params), rng_(seed)
{
    MDW_ASSERT(params_.retryLimit >= 1,
               "link %s: retryLimit must be >= 1", name_.c_str());
    MDW_ASSERT(params_.replayBufferFlits >= 1,
               "link %s: replay buffer must hold >= 1 flit",
               name_.c_str());
}

void
LinkLayer::setFlaps(std::vector<FlapWindow> flaps)
{
    flaps_ = std::move(flaps);
    flapTraced_.assign(flaps_.size(), false);
}

void
LinkLayer::attachTelemetry(Telemetry &telemetry,
                           MetricsRegistry::ScopeId scope)
{
    tracer_ = telemetry.tracer();
    MetricsRegistry &reg = telemetry.registry();
    reg.registerCounter(scope, "corrupted", &stats_.corrupted);
    reg.registerCounter(scope, "naks", &stats_.naks);
    reg.registerCounter(scope, "replays", &stats_.replays);
    reg.registerCounter(scope, "timeouts", &stats_.timeouts);
    reg.registerCounter(scope, "residual_errors",
                        &stats_.residualErrors);
    reg.registerCounter(scope, "replay_stall_cycles",
                        &stats_.replayStallCycles);
    reg.registerCounter(scope, "dropped", &stats_.dropped);
}

bool
LinkLayer::inFlap(Cycle cycle, std::size_t *window) const
{
    for (std::size_t i = 0; i < flaps_.size(); ++i) {
        if (cycle >= flaps_[i].start && cycle < flaps_[i].end) {
            if (window)
                *window = i;
            return true;
        }
    }
    return false;
}

void
LinkLayer::popAcked(Cycle cycle)
{
    while (!window_.empty() && window_.front() <= cycle)
        window_.pop_front();
}

Cycle
LinkLayer::drop(const Flit &flit)
{
    stats_.dropped.inc();
    if (poisoned_ != nullptr)
        poisoned_->insert(flit.pkt->id);
    return kNoCycle;
}

Cycle
LinkLayer::escalateAndDrop(const Flit &flit, Cycle when)
{
    dead_ = true;
    warn("link %s: retry budget (%d) exhausted at cycle %llu, "
         "escalating to fail-stop",
         name_.c_str(), params_.retryLimit,
         static_cast<unsigned long long>(when));
    if (escalate_)
        escalate_(when);
    return drop(flit);
}

Cycle
LinkLayer::onSend(Flit &flit, Cycle now)
{
    if (dead_)
        return drop(flit);

    // Earliest wire slot: after the previous flit's final departure
    // (the wire carries one flit per cycle, replays included).
    Cycle depart = now;
    if (lastDepart_ != kNoCycle && depart <= lastDepart_)
        depart = lastDepart_ + 1;

    // Go-back-N window: with replayBufferFlits unacked flits the
    // sender must hold this one until the oldest cumulative ack
    // returns.
    popAcked(depart);
    if (window_.size() >=
        static_cast<std::size_t>(params_.replayBufferFlits)) {
        const Cycle stallUntil = window_.front();
        stats_.replayStallCycles.inc(stallUntil - depart);
        depart = stallUntil;
        popAcked(depart);
    }

    int attempts = 0;
    for (;;) {
        ++attempts;
        flit.seal(txNextSeq_);

        // A traversal departing inside a flap window is lost on the
        // wire; the sender's retry timer replays it.
        std::size_t flapIdx = 0;
        if (inFlap(depart, &flapIdx)) {
            stats_.timeouts.inc();
            if (!flapTraced_[flapIdx]) {
                flapTraced_[flapIdx] = true;
                MDW_TRACE_EVENT(tracer_, WormEvent::LinkFlap, depart,
                                flit.pkt->id, flit.pkt->msg, sw_,
                                false, port_);
            }
            if (attempts >= params_.retryLimit)
                return escalateAndDrop(flit, depart + timeout());
            depart += timeout();
            stats_.replays.inc();
            MDW_TRACE_EVENT(tracer_, WormEvent::Replay, depart,
                            flit.pkt->id, flit.pkt->msg, sw_, false,
                            attempts);
            continue;
        }

        const bool corrupted =
            forcedCorrupt_ > 0
                ? (--forcedCorrupt_, true)
                : (params_.ber > 0.0 && rng_.chance(params_.ber));
        if (!corrupted)
            break;
        stats_.corrupted.inc();

        // Drive the real check: corrupt a wire copy and verify the
        // receiver's CRC actually flags it.
        Flit wire = flit;
        wire.corrupt(static_cast<std::uint16_t>(rng_.next() | 1u));
        MDW_ASSERT(!wire.crcOk(),
                   "link %s: corruption not caught by the CRC",
                   name_.c_str());

        const bool residual =
            forcedResidual_ > 0
                ? (--forcedResidual_, true)
                : (params_.residual > 0.0 &&
                   rng_.chance(params_.residual));
        if (residual) {
            // The (modeled) collision case: the corrupted flit passes
            // the link CRC and is accepted. Taint the replication
            // branch; the end-to-end payload checksum at the NIC is
            // now the only line of defense.
            stats_.residualErrors.inc();
            if (flit.pkt->taint)
                flit.pkt->taint->corrupted = true;
            else if (poisoned_ != nullptr)
                poisoned_->insert(flit.pkt->id);
            break;
        }

        // Detected: the receiver NAKs on arrival; the replay departs
        // after the NAK reaches the sender.
        stats_.naks.inc();
        lastNak_ = depart + 2 * delay_;
        MDW_TRACE_EVENT(tracer_, WormEvent::CrcFail, depart + delay_,
                        flit.pkt->id, flit.pkt->msg, sw_, false,
                        port_);
        MDW_TRACE_EVENT(tracer_, WormEvent::Nak, depart + 2 * delay_,
                        flit.pkt->id, flit.pkt->msg, sw_, false,
                        port_);
        if (attempts >= params_.retryLimit)
            return escalateAndDrop(flit, depart + 2 * delay_);
        depart += 2 * delay_ + 1;
        stats_.replays.inc();
        MDW_TRACE_EVENT(tracer_, WormEvent::Replay, depart,
                        flit.pkt->id, flit.pkt->msg, sw_, false,
                        attempts);
    }

    ++txNextSeq_;
    lastDepart_ = depart;
    const Cycle arrival = depart + delay_;
    // Cumulative ack for this flit returns one wire delay after
    // delivery.
    window_.push_back(arrival + delay_);
    return arrival;
}

void
LinkLayer::onReceive(const Flit &flit)
{
    // The delivered copy must carry a valid seal in the expected
    // sequence position — the receiver-side statement of the ARQ
    // invariant (send-time resolution already replayed every
    // corrupted or lost traversal).
    MDW_ASSERT(flit.crcOk(), "link %s: delivered flit fails its CRC",
               name_.c_str());
    MDW_ASSERT(flit.linkSeq == rxNextSeq_,
               "link %s: delivered linkSeq %u, expected %u",
               name_.c_str(), flit.linkSeq, rxNextSeq_);
    ++rxNextSeq_;
}

} // namespace mdw
