#include "host/nic.hh"

#include <algorithm>
#include <cmath>

#include "host/sw_mcast.hh"
#include "sim/system.hh"

namespace mdw {

const char *
toString(McastScheme scheme)
{
    switch (scheme) {
      case McastScheme::Hardware:
        return "hardware";
      case McastScheme::Software:
        return "software";
    }
    return "?";
}

Nic::Nic(std::string name, NodeId id, std::size_t numHosts,
         const NicParams &params, PacketFactory *factory,
         McastTracker *tracker)
    : Component(std::move(name)), id_(id), numHosts_(numHosts),
      params_(params), factory_(factory), tracker_(tracker)
{
    MDW_ASSERT(factory != nullptr && tracker != nullptr,
               "NIC %d needs a factory and a tracker", id);
    MDW_ASSERT(params_.lanes >= 1, "NIC %d: lanes must be >= 1", id);
    rxCurrent_.resize(static_cast<std::size_t>(params_.lanes));
    rxArrived_.resize(static_cast<std::size_t>(params_.lanes), 0);
    txQueue_.resize(static_cast<std::size_t>(params_.lanes));
}

void
Nic::attachTelemetry(Telemetry &telemetry)
{
    tracer_ = telemetry.tracer();
    MetricsRegistry &reg = telemetry.registry();
    const MetricsRegistry::ScopeId scope =
        reg.scope("nic.", static_cast<std::uint32_t>(id_));
    reg.registerCounter(scope, "messages_posted",
                        &stats_.messagesPosted);
    reg.registerCounter(scope, "packets_injected",
                        &stats_.packetsInjected);
    reg.registerCounter(scope, "flits_injected", &stats_.flitsInjected);
    reg.registerCounter(scope, "flits_ejected", &stats_.flitsEjected);
    reg.registerCounter(scope, "packets_delivered",
                        &stats_.packetsDelivered);
    reg.registerCounter(scope, "sw_forwards", &stats_.swForwards);
    reg.registerCounter(scope, "retransmits", &stats_.retransmits);
    reg.registerCounter(scope, "poisoned_drops", &stats_.poisonedDrops);
    reg.registerCounter(scope, "csum_fails", &stats_.csumFails);
}

void
Nic::connectTx(Channel<Flit> *out, CreditChannel *creditIn,
               const ReceivePolicy &downstream)
{
    MDW_ASSERT(txOut_ == nullptr, "NIC %d tx connected twice", id_);
    txOut_ = out;
    txCreditIn_ = creditIn;
    // Each lane runs its own credit loop of the full window (the
    // switch buffers every lane independently).
    txCredits_.assign(static_cast<std::size_t>(params_.lanes),
                      downstream.window);
    txMcastWholePacket_ = downstream.mcastWholePacket;
    // A credit-blocked NIC sleeps until the switch returns credits.
    creditIn->setWakeSink(this);
}

void
Nic::connectRx(Channel<Flit> *in, CreditChannel *creditOut)
{
    MDW_ASSERT(rxIn_ == nullptr, "NIC %d rx connected twice", id_);
    rxIn_ = in;
    rxCreditOut_ = creditOut;
    // Arriving flits must be able to rouse a sleeping NIC.
    in->setWakeSink(this);
}

MsgId
Nic::postUnicast(NodeId dest, int payloadFlits, Cycle now,
                 std::uint64_t token, int trafficClass)
{
    MDW_ASSERT(dest != id_, "NIC %d unicast to itself", id_);
    MDW_ASSERT(payloadFlits > 0, "empty payload");
    const MsgId msg = factory_->newMsgId();
    tracker_->expectMessage(msg, id_, 1, now, false);
    stats_.messagesPosted.inc();
    // Before launch(): write-offs inside launch() can retire the
    // message synchronously, and the completion hook must find the
    // token already registered.
    if (source_)
        source_->onPosted(id_, token, msg, now);

    DestSet dests(numHosts_);
    dests.set(dest);
    launch(msg, dests, false, payloadFlits, trafficClass, now);
    return msg;
}

MsgId
Nic::postMulticast(const DestSet &dests, int payloadFlits, Cycle now,
                   std::uint64_t token, int trafficClass)
{
    MDW_ASSERT(!dests.empty(), "multicast with no destinations");
    MDW_ASSERT(!dests.test(id_), "NIC %d multicast includes itself",
               id_);
    const MsgId msg = factory_->newMsgId();
    tracker_->expectMessage(msg, id_, dests.count(), now, true);
    stats_.messagesPosted.inc();
    if (source_)
        source_->onPosted(id_, token, msg, now);
    launch(msg, dests, true, payloadFlits, trafficClass, now);
    return msg;
}

void
Nic::launch(MsgId msg, const DestSet &dests, bool multicast,
            int payloadFlits, int trafficClass, Cycle now)
{
    const DestSet remaining = pruneUnreachable(msg, dests, now);
    if (remaining.empty())
        return;
    if (params_.retransmitTimeout > 0) {
        MDW_ASSERT(tracker_->resilient(),
                   "NIC %d: retransmission needs a resilient tracker",
                   id_);
        Pending pending;
        pending.dests = remaining;
        pending.payloadFlits = payloadFlits;
        pending.multicast = multicast;
        pending.trafficClass = trafficClass;
        pending.interval = params_.retransmitTimeout;
        pending.deadline = now + pending.interval;
        nextRetx_ = std::min(nextRetx_, pending.deadline);
        pending_.emplace(msg, std::move(pending));
        // The retry timer must run even if nothing gets queued below
        // (dead up-link): the deadline sweep is what writes the
        // destinations off.
        requestWake(now);
    }
    sendCopies(msg, remaining, multicast, payloadFlits, trafficClass,
               now);
}

DestSet
Nic::pruneUnreachable(MsgId msg, const DestSet &dests, Cycle now)
{
    if (!txFailed_ && !reachable_)
        return dests;
    DestSet remaining(numHosts_);
    for (NodeId dest : dests.toVector()) {
        if (!txFailed_ && reachable_->test(dest)) {
            remaining.set(dest);
        } else {
            MDW_ASSERT(tracker_->resilient(),
                       "NIC %d: unreachable destination %d without a "
                       "resilient tracker",
                       id_, dest);
            tracker_->markUnreachable(msg, dest, now);
        }
    }
    return remaining;
}

void
Nic::sendCopies(MsgId msg, const DestSet &dests, bool multicast,
                int payloadFlits, int trafficClass, Cycle now)
{
    if (!multicast) {
        for (NodeId dest : dests.toVector()) {
            PacketDesc proto;
            proto.msg = msg;
            proto.src = id_;
            proto.dests = DestSet(numHosts_);
            proto.dests.set(dest);
            proto.kind = PacketKind::Unicast;
            proto.headerFlits = params_.enc.unicastHeaderFlits;
            proto.payloadFlits = payloadFlits;
            proto.trafficClass = trafficClass;
            proto.created = now;
            enqueueSegmented(std::move(proto));
        }
        return;
    }

    if (params_.scheme == McastScheme::Hardware) {
        if (params_.encoding == McastEncoding::BitString) {
            PacketDesc proto;
            proto.msg = msg;
            proto.src = id_;
            proto.dests = dests;
            proto.kind = PacketKind::HwMulticast;
            proto.headerFlits =
                bitStringHeaderFlits(numHosts_, params_.enc);
            proto.payloadFlits = payloadFlits;
            proto.trafficClass = trafficClass;
            proto.created = now;
            enqueueSegmented(std::move(proto));
            return;
        } else {
            const auto groups =
                planMultiportPhases(static_cast<std::size_t>(
                                        params_.multiportK),
                                    params_.multiportLevels, dests);
            for (const DestSet &group : groups) {
                PacketDesc proto;
                proto.msg = msg;
                proto.src = id_;
                proto.dests = group;
                proto.kind = PacketKind::HwMulticast;
                proto.headerFlits = multiportHeaderFlits(
                    params_.multiportLevels, params_.enc);
                proto.payloadFlits = payloadFlits;
                proto.trafficClass = trafficClass;
                proto.created = now;
                enqueueSegmented(std::move(proto));
            }
        }
        return;
    }

    // Software scheme: U-Min binomial unicast tree.
    const auto sends = planBinomialSends(id_, dests.toVector());
    for (const SwSend &send : sends) {
        PacketDesc proto;
        proto.msg = msg;
        proto.src = id_;
        proto.dests = DestSet(numHosts_);
        proto.dests.set(send.target);
        proto.kind = PacketKind::SwMulticastCarrier;
        proto.headerFlits =
            swCarrierHeaderFlits(send.delegated.size());
        proto.payloadFlits = payloadFlits;
        proto.trafficClass = trafficClass;
        proto.created = now;
        proto.swDelegated = send.delegated;
        proto.swPhase = 0;
        enqueueSegmented(std::move(proto));
    }
}

void
Nic::postBarrierArrive(int group, Cycle now)
{
    MDW_ASSERT(group >= 0, "invalid barrier group %d", group);
    PacketDesc proto;
    proto.src = id_;
    proto.dests = DestSet(numHosts_); // not destination-routed
    proto.kind = PacketKind::BarrierArrive;
    proto.headerFlits = 2;
    proto.payloadFlits = 0;
    proto.barrierGroup = group;
    proto.created = now;
    enqueueJob(std::move(proto));
}

int
Nic::swCarrierHeaderFlits(std::size_t delegated) const
{
    int header = params_.enc.unicastHeaderFlits;
    if (params_.swListOverhead && delegated > 0) {
        int bits_per_id = 1;
        while ((1ULL << bits_per_id) < numHosts_)
            ++bits_per_id;
        const int bits = static_cast<int>(delegated) * bits_per_id;
        header += (bits + params_.enc.flitBits - 1) / params_.enc.flitBits;
    }
    return header;
}

void
Nic::enqueueJob(PacketDesc proto)
{
    if (txFailed_)
        return; // dead up-link: nothing can leave this host
    SendJob job;
    job.proto = std::move(proto);
    txQueue_[static_cast<std::size_t>(
                 injectLane(job.proto.trafficClass))]
        .push_back(std::move(job));
    ++txQueued_;
    // Every queue entry point funnels through here, so this one wake
    // covers application posts, carrier forwards, barrier tokens, and
    // retransmissions landing on a sleeping NIC.
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
Nic::enqueueSegmented(PacketDesc proto)
{
    MDW_ASSERT(params_.maxPayloadFlits > 0, "maxPayloadFlits not set");
    const int max_payload = params_.maxPayloadFlits;
    if (proto.payloadFlits <= max_payload) {
        enqueueJob(std::move(proto));
        return;
    }
    const int total = proto.payloadFlits;
    const int packets = (total + max_payload - 1) / max_payload;
    proto.msgPackets = packets;
    for (int i = 0; i < packets; ++i) {
        PacketDesc seg = proto;
        seg.msgSeq = i;
        seg.payloadFlits = std::min(max_payload,
                                    total - i * max_payload);
        // Delegation info only needs to ride once; keep it on every
        // segment so the receiver can forward from whichever
        // descriptor it holds when reassembly completes.
        enqueueJob(std::move(seg));
    }
}

void
Nic::step(Cycle now)
{
    if (txCreditIn_ && txCreditIn_->nextArrival() <= now)
        (void)txCreditIn_->receiveByLane(now, txCredits_);
    pollSource(now);
    stepTx(now);
    stepRx(now);
    if (params_.retransmitTimeout > 0)
        checkRetransmits(now);
}

Cycle
Nic::nextWork(Cycle now)
{
    Cycle next = kNoCycle;
    const auto consider = [&next](Cycle when) {
        if (when < next)
            next = when;
    };
    if (txCreditIn_ != nullptr)
        consider(txCreditIn_->nextArrival());
    if (rxIn_ != nullptr)
        consider(rxIn_->nextArrival());
    if (source_ != nullptr)
        consider(source_->nextArrival(id_, now + 1));
    if (!txFailed_ && txOut_ != nullptr && txQueued_ != 0) {
        // Mirror stepTx's gating for each lane's head job: an
        // unprepared or not-yet-ready head has a known wake-up; a
        // ready head only needs stepping while credits allow a send
        // (the credit channel wakes us otherwise).
        for (std::size_t lane = 0; lane < txQueue_.size(); ++lane) {
            if (txQueue_[lane].empty())
                continue;
            const SendJob &job = txQueue_[lane].front();
            if (!job.prepared) {
                consider(now + 1);
            } else if (now < job.readyAt) {
                // Software send overhead: the packet is built once
                // the overhead elapses, so sleep straight through it.
                consider(job.readyAt);
            } else if (job.pkt == nullptr) {
                consider(now + 1);
            } else {
                const bool whole_packet =
                    job.sent == 0 && txMcastWholePacket_ &&
                    job.pkt->kind == PacketKind::HwMulticast;
                const int needed =
                    whole_packet ? job.pkt->totalFlits() : 1;
                if (txCredits_[lane] >= needed)
                    consider(now + 1);
            }
        }
    }
    if (params_.retransmitTimeout > 0 && !pending_.empty())
        consider(nextRetx_ > now ? nextRetx_ : now + 1);
    return next;
}

void
Nic::checkRetransmits(Cycle now)
{
    if (pending_.empty() || now < nextRetx_)
        return;
    nextRetx_ = kNoCycle;
    for (auto it = pending_.begin(); it != pending_.end();) {
        Pending &p = it->second;
        const MsgId msg = it->first;
        if (tracker_->isComplete(msg)) {
            it = pending_.erase(it);
            continue;
        }
        if (now < p.deadline) {
            nextRetx_ = std::min(nextRetx_, p.deadline);
            ++it;
            continue;
        }
        // Deadline passed with destinations still owing a copy:
        // write off the ones with no surviving route (or with the
        // retry budget exhausted), resend to the rest.
        DestSet resend(numHosts_);
        for (NodeId dest : p.dests.toVector()) {
            if (tracker_->isDelivered(msg, dest))
                continue;
            const bool routable =
                !txFailed_ && (!reachable_ || reachable_->test(dest));
            if (!routable || p.attempts >= params_.maxRetransmits)
                tracker_->markUnreachable(msg, dest, now);
            else
                resend.set(dest);
        }
        if (resend.empty()) {
            it = pending_.erase(it);
            continue;
        }
        ++p.attempts;
        stats_.retransmits.inc();
        MDW_TRACE_EVENT(tracer_, WormEvent::Retransmit, now, 0, msg,
                        id_, true, p.attempts);
        p.dests = resend;
        sendCopies(msg, resend, p.multicast, p.payloadFlits,
                   p.trafficClass, now);
        p.interval = std::min(p.interval * 2,
                              params_.retransmitTimeout * 8);
        p.deadline = now + p.interval;
        nextRetx_ = std::min(nextRetx_, p.deadline);
        ++it;
    }
}

void
Nic::pollSource(Cycle now)
{
    if (!source_)
        return;
    std::vector<MessageSpec> specs;
    source_->poll(id_, now, specs);
    for (const MessageSpec &spec : specs) {
        // The post itself invokes source_->onPosted() before the
        // message can possibly complete (see postUnicast()).
        if (spec.multicast)
            postMulticast(spec.dests, spec.payloadFlits, now,
                          spec.token, spec.trafficClass);
        else
            postUnicast(spec.dest, spec.payloadFlits, now, spec.token,
                        spec.trafficClass);
    }
}

void
Nic::stepTx(Cycle now)
{
    if (txFailed_ || txQueued_ == 0 || !txOut_)
        return;
    // One injection engine per lane: each lane's front job is that
    // lane's head, and heads prepare (pay the software send overhead)
    // independently, so a credit-blocked bulk packet never
    // head-of-line blocks a latency-class one. The physical link
    // still carries one flit per cycle; higher lanes — the latency
    // partition — are offered it first, mirroring the switches'
    // serviceLane order. With one lane every job shares lane 0 and
    // this is exactly the single-queue behavior.
    for (int lane = params_.lanes - 1; lane >= 0; --lane) {
        Ring<SendJob> &queue = txQueue_[static_cast<std::size_t>(lane)];
        if (queue.empty())
            continue;
        SendJob &job = queue.front();
        if (!job.prepared) {
            job.prepared = true;
            job.readyAt = now + params_.sendOverhead;
        }
        if (now < job.readyAt)
            continue;
        if (!job.pkt) {
            job.proto.injected = now;
            job.pkt = factory_->make(job.proto);
            stats_.packetsInjected.inc();
            MDW_TRACE_EVENT(tracer_, WormEvent::Inject, now,
                            job.pkt->id, job.pkt->msg, id_, true, 0);
        }
        if (txCredits_[static_cast<std::size_t>(lane)] < 1)
            continue;
        if (job.sent == 0 && txMcastWholePacket_ &&
            job.pkt->kind == PacketKind::HwMulticast &&
            txCredits_[static_cast<std::size_t>(lane)] <
                job.pkt->totalFlits()) {
            continue; // whole-packet reservation toward an IB switch
        }
        txOut_->send(Flit{job.pkt, job.sent, lane}, now);
        ++job.sent;
        --txCredits_[static_cast<std::size_t>(lane)];
        stats_.flitsInjected.inc();
        if (sim_)
            sim_->noteProgress();
        if (job.sent == job.pkt->totalFlits()) {
            queue.pop_front();
            --txQueued_;
        }
        return; // the link took its one flit for this cycle
    }
}

void
Nic::stepRx(Cycle now)
{
    if (!rxIn_ || !rxIn_->peek(now))
        return;
    if (rxFailed_) {
        // Dead down-link: drain and discard so the channel empties
        // (the failed switch port discards credits anyway).
        rxIn_->receive(now);
        return;
    }
    const Flit flit = rxIn_->receive(now);
    MDW_ASSERT(flit.lane >= 0 && flit.lane < params_.lanes,
               "NIC %d: flit on lane %d of %d", id_, flit.lane,
               params_.lanes);
    const auto lane = static_cast<std::size_t>(flit.lane);
    if (rxCreditOut_)
        rxCreditOut_->send(1, now, flit.lane); // always sinks traffic
    stats_.flitsEjected.inc();
    if (sim_)
        sim_->noteProgress();

    PacketPtr &current = rxCurrent_[lane];
    int &arrived = rxArrived_[lane];
    if (flit.isHead()) {
        MDW_ASSERT(current == nullptr,
                   "NIC %d: head flit while packet %llu in reassembly",
                   id_,
                   current
                       ? static_cast<unsigned long long>(current->id)
                       : 0ULL);
        current = flit.pkt;
        arrived = 1;
    } else {
        MDW_ASSERT(current && current->id == flit.pkt->id,
                   "NIC %d: flit of unexpected packet", id_);
        ++arrived;
    }
    if (flit.isTail()) {
        MDW_ASSERT(arrived == flit.pkt->totalFlits(),
                   "NIC %d: tail after %d of %d flits", id_, arrived,
                   flit.pkt->totalFlits());
        if (poisoned_ && poisoned_->count(flit.pkt->id) != 0) {
            // A fault truncated this packet in flight and the network
            // phantom-completed it; the end-to-end check discards it
            // here. Retransmission re-covers the destination.
            stats_.poisonedDrops.inc();
            MDW_TRACE_EVENT(tracer_, WormEvent::PoisonDrop, now,
                            flit.pkt->id, flit.pkt->msg, id_, true, 0);
        } else if (flit.pkt->taint && flit.pkt->taint->tainted()) {
            // The payload checksum fails: a link let corruption slip
            // past its CRC somewhere on this replication branch. The
            // delivery is discarded (never reported to the tracker,
            // so the message can only complete with verified copies);
            // the source's retransmission path re-covers us.
            stats_.csumFails.inc();
            MDW_TRACE_EVENT(tracer_, WormEvent::PoisonDrop, now,
                            flit.pkt->id, flit.pkt->msg, id_, true, 1);
        } else {
            deliver(current, now);
        }
        current = nullptr;
        arrived = 0;
    }
}

void
Nic::deliver(const PacketPtr &pkt, Cycle now)
{
    MDW_ASSERT(pkt->dests.containsOnly(id_),
               "NIC %d received a packet for someone else "
               "(dest count %zu)",
               id_, pkt->dests.count());
    stats_.packetsDelivered.inc();
    MDW_TRACE_EVENT(tracer_, WormEvent::Deliver, now, pkt->id,
                    pkt->msg, id_, true, 0);

    if (tracker_->resilient() && tracker_->isDelivered(pkt->msg, id_)) {
        // A redundant copy (retransmission raced the original): let
        // the tracker count the duplicate, but do not forward
        // carriers or disturb reassembly state again.
        tracker_->onDelivered(pkt->msg, id_, now, 0);
        return;
    }

    int message_payload = pkt->payloadFlits;
    if (pkt->msgPackets > 1) {
        // Reassemble: the message is delivered at this node once all
        // of its segments have landed.
        RxMessage &rx = rxMessages_[pkt->msg];
        if (!rx.seen.insert(pkt->msgSeq).second)
            return; // retransmitted segment already held
        rx.payload += pkt->payloadFlits;
        if (static_cast<int>(rx.seen.size()) < pkt->msgPackets)
            return;
        message_payload = rx.payload;
        rxMessages_.erase(pkt->msg);
    }
    tracker_->onDelivered(pkt->msg, id_, now, message_payload);

    if (pkt->kind == PacketKind::SwMulticastCarrier &&
        !pkt->swDelegated.empty()) {
        // Forward to the delegated subtree after the software
        // receive overhead.
        PacketPtr captured = pkt;
        const int payload = message_payload;
        MDW_ASSERT(sim_ != nullptr,
                   "NIC %d must be registered to forward carriers",
                   id_);
        sim_->events().schedule(now + params_.recvOverhead,
                                [this, captured, payload] {
                                    forwardSwCarrier(captured, payload);
                                });
    }
}

void
Nic::forwardSwCarrier(PacketPtr pkt, int payloadFlits)
{
    stats_.swForwards.inc();
    const auto sends = planBinomialSends(id_, pkt->swDelegated);
    for (const SwSend &send : sends) {
        PacketDesc proto;
        proto.msg = pkt->msg;
        proto.src = id_;
        proto.dests = DestSet(numHosts_);
        proto.dests.set(send.target);
        proto.kind = PacketKind::SwMulticastCarrier;
        proto.headerFlits = swCarrierHeaderFlits(send.delegated.size());
        proto.payloadFlits = payloadFlits;
        proto.trafficClass = pkt->trafficClass;
        proto.msgPackets = 1;
        proto.msgSeq = 0;
        proto.created = pkt->created;
        proto.swDelegated = send.delegated;
        proto.swPhase = pkt->swPhase + 1;
        enqueueSegmented(std::move(proto));
    }
}

void
Nic::failTx()
{
    MDW_ASSERT(tracker_->resilient(),
               "NIC %d: failTx without a resilient tracker", id_);
    txFailed_ = true;
    // Whatever was queued can no longer leave; the flits of a packet
    // already part-way onto the wire are phantom-completed by the
    // switch's failed input port. Undelivered destinations are
    // written off by the retransmission timeout (or immediately, for
    // messages posted from now on).
    for (Ring<SendJob> &queue : txQueue_)
        queue.clear();
    txQueued_ = 0;
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
Nic::failRx()
{
    rxFailed_ = true;
    std::fill(rxCurrent_.begin(), rxCurrent_.end(), nullptr);
    std::fill(rxArrived_.begin(), rxArrived_.end(), 0);
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

bool
Nic::quiescent(std::string *why) const
{
    const auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        return false;
    };
    if (!txFailed_ && txQueued_ != 0)
        return complain(std::to_string(txQueued_) +
                        " packet(s) still queued for injection");
    for (const PacketPtr &current : rxCurrent_) {
        if (current)
            return complain("packet mid-reassembly at ejection");
    }
    for (const auto &[msg, rx] : rxMessages_) {
        // A segment of a written-off message may legitimately never
        // arrive; only messages the tracker still considers live
        // count as stranded state.
        if (!tracker_->isComplete(msg))
            return complain("message " + std::to_string(msg) +
                            " partially reassembled");
    }
    return true;
}

} // namespace mdw
