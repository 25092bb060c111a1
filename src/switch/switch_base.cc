#include "switch/switch_base.hh"

#include <algorithm>
#include <functional>

#include "sim/system.hh"

namespace mdw {

const char *
toString(ReplicationMode mode)
{
    switch (mode) {
      case ReplicationMode::Asynchronous:
        return "asynchronous";
      case ReplicationMode::Synchronous:
        return "synchronous";
    }
    return "?";
}

SwitchBase::SwitchBase(std::string name, SwitchId id,
                       const SwitchRouting *routing,
                       const SwitchParams &params, int inputFlits)
    : Component(std::move(name)), id_(id), routing_(routing),
      params_(params), inputFlits_(inputFlits),
      ins_(static_cast<std::size_t>(routing->radix())),
      inLive_(ins_.size()),
      fifos_(static_cast<std::size_t>(routing->radix()) *
             static_cast<std::size_t>(params.lanes)),
      held_(fifos_.size()),
      outs_(static_cast<std::size_t>(routing->radix())),
      creditLive_(outs_.size()),
      credits_(fifos_.size(), 0),
      portTx_(static_cast<std::size_t>(routing->radix())),
      laneTx_(params.lanes > 1
                  ? static_cast<std::size_t>(routing->radix()) *
                        static_cast<std::size_t>(params.lanes)
                  : 0),
      rng_(Rng(params.seed).fork(static_cast<std::uint64_t>(id) + 17))
{
    MDW_ASSERT(routing != nullptr, "switch %d without routing", id);
    MDW_ASSERT(params.lanes >= 1, "switch %d with %d lanes", id,
               params.lanes);
    MDW_ASSERT(inputFlits > 0, "switch %d input FIFO must be > 0", id);
    for (InputFifo &fifo : fifos_)
        fifo.freeSlots = inputFlits;
}

void
SwitchBase::connectIn(PortId port, Channel<Flit> *in,
                      CreditChannel *creditOut)
{
    auto &p = ins_.at(static_cast<std::size_t>(port));
    MDW_ASSERT(!p.connected(), "switch %d input %d connected twice",
               id_, port);
    p.in = in;
    p.creditOut = creditOut;
    // Arriving flits must be able to rouse a sleeping switch, and
    // mark the port live (and lower its arrival bound) so intake
    // looks at it.
    in->setWakeSink(this);
    p.next = in->nextArrival();
    if (p.next != kNoCycle)
        inLive_.set(static_cast<std::size_t>(port));
    in->setArrivalHint(&p.next, inLive_, static_cast<std::size_t>(port));
}

void
SwitchBase::connectOut(PortId port, Channel<Flit> *out,
                       CreditChannel *creditIn,
                       const ReceivePolicy &policy)
{
    auto &p = outs_.at(static_cast<std::size_t>(port));
    MDW_ASSERT(!p.connected(), "switch %d output %d connected twice",
               id_, port);
    p.out = out;
    p.creditIn = creditIn;
    // Every lane gets the receiver's full advertised window: the
    // downstream per-lane buffers are independent, so total buffering
    // scales with the lane count (per the multi-lane MIN model).
    for (int lane = 0; lane < params_.lanes; ++lane)
        credits(static_cast<std::size_t>(port), lane) = policy.window;
    p.initialCredits = policy.window;
    p.mcastWholePacket = policy.mcastWholePacket;
    // Returning credits must be collected promptly even while idle,
    // or quiescence (credits back home) would stall under the fast
    // path.
    creditIn->setWakeSink(this);
    p.next = creditIn->nextArrival();
    if (p.next != kNoCycle)
        creditLive_.set(static_cast<std::size_t>(port));
    creditIn->setArrivalHint(&p.next, creditLive_,
                             static_cast<std::size_t>(port));
}

Cycle
SwitchBase::earliestLinkArrival() const
{
    // A port whose live bit is clear has its bound at kNoCycle.
    Cycle next = kNoCycle;
    for (std::size_t i = inLive_.next(0); i != SlotMask::kEnd;
         i = inLive_.next(i + 1))
        next = std::min(next, ins_[i].next);
    for (std::size_t o = creditLive_.next(0); o != SlotMask::kEnd;
         o = creditLive_.next(o + 1))
        next = std::min(next, outs_[o].next);
    return next;
}

void
SwitchBase::setRouting(const SwitchRouting *routing)
{
    MDW_ASSERT(routing != nullptr, "switch %d rerouted to null", id_);
    MDW_ASSERT(routing->radix() == routing_->radix(),
               "switch %d rerouted to a different radix", id_);
    routing_ = routing;
}

void
SwitchBase::failInPort(PortId port)
{
    ins_.at(static_cast<std::size_t>(port)).failed = true;
    // The tombstone/phantom-completion paths run in step(); make sure
    // a sleeping switch notices the state change.
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
SwitchBase::failOutPort(PortId port)
{
    outs_.at(static_cast<std::size_t>(port)).failed = true;
    if (sim_ != nullptr)
        requestWake(sim_->now());
}

void
SwitchBase::degradeOutPort(PortId port, int factor)
{
    MDW_ASSERT(factor >= 1, "degrade factor %d < 1", factor);
    outs_.at(static_cast<std::size_t>(port)).degrade = factor;
}

void
SwitchBase::noteUnroutable(const RouteDecision &route)
{
    if (route.unroutable.empty())
        return;
    MDW_ASSERT(poisoned_ != nullptr,
               "switch %d: unroutable destinations on an intact "
               "network",
               id_);
    stats_.unroutableDests.inc(route.unroutable.count());
}

bool
SwitchBase::quiescent(std::string *why) const
{
    for (std::size_t p = 0; p < outs_.size(); ++p) {
        const OutPort &out = outs_[p];
        if (!out.connected() || out.failed)
            continue;
        for (int l = 0; l < params_.lanes; ++l) {
            const int held = credits(p, l);
            if (held != out.initialCredits) {
                if (why) {
                    *why += "switch " + std::to_string(id_) +
                            " output " + std::to_string(p) + " lane " +
                            std::to_string(l) + " holds " +
                            std::to_string(out.initialCredits - held) +
                            " outstanding credits; ";
                }
                return false;
            }
        }
    }
    for (std::size_t i = 0; i < fifos_.size(); ++i) {
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty() && fifo.freeSlots == inputFlits_)
            continue;
        if (why) {
            *why += name() + ": input " + std::to_string(i) +
                    " holds " + std::to_string(fifo.packets.size()) +
                    " packet(s) in " +
                    std::to_string(inputFlits_ - fifo.freeSlots) +
                    " FIFO slots; ";
        }
        return false;
    }
    return true;
}

bool
SwitchBase::activityExact(std::string *why) const
{
    bool ok = true;
    auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        ok = false;
    };
    // A port's bound, its live bit and its channel's contents must
    // agree: bound <= next arrival, bit == "channel holds something"
    // == "bound is not kNoCycle".
    auto checkPort = [&](const std::string &what, Cycle bound,
                         Cycle arrival, bool live) {
        if (bound > arrival)
            complain(what + " bound " + std::to_string(bound) +
                     " above next arrival " + std::to_string(arrival));
        if (live != (arrival != kNoCycle) || live != (bound != kNoCycle))
            complain(what + " live bit is " + std::to_string(live) +
                     " with bound " + std::to_string(bound) +
                     " and next arrival " + std::to_string(arrival));
    };
    for (std::size_t p = 0; p < ins_.size(); ++p) {
        const InPort &in = ins_[p];
        checkPort("input " + std::to_string(p) + " arrival", in.next,
                  in.connected() ? in.in->nextArrival() : kNoCycle,
                  inLive_.test(p));
    }
    for (std::size_t p = 0; p < outs_.size(); ++p) {
        const OutPort &out = outs_[p];
        checkPort("output " + std::to_string(p) + " credit", out.next,
                  out.creditIn ? out.creditIn->nextArrival() : kNoCycle,
                  creditLive_.test(p));
    }
    for (std::size_t i = 0; i < fifos_.size(); ++i) {
        if (held_.test(i) != !fifos_[i].packets.empty())
            complain("held-input bit " + std::to_string(i) + " is " +
                     std::to_string(held_.test(i)) + " with " +
                     std::to_string(fifos_[i].packets.size()) +
                     " packet(s) queued");
    }
    return ok;
}

std::uint64_t
SwitchBase::portTxFlits(PortId port) const
{
    return portTx_.at(static_cast<std::size_t>(port)).value();
}

int
SwitchBase::inputOccupancy(PortId port) const
{
    int occupied = 0;
    for (int l = 0; l < lanes(); ++l)
        occupied += inputFlits_ -
                    fifos_.at(laneIdx(static_cast<std::size_t>(port), l))
                        .freeSlots;
    return occupied;
}

bool
SwitchBase::outConnected(PortId port) const
{
    return outs_.at(static_cast<std::size_t>(port)).connected();
}

void
SwitchBase::notePortSend(std::size_t port, int lane)
{
    stats_.flitsOut.inc();
    portTx_[port].inc();
    if (params_.lanes > 1)
        laneTx_[laneIdx(port, lane)].inc();
}

void
SwitchBase::collectCredits(Cycle now)
{
    const auto width = static_cast<std::size_t>(params_.lanes);
    for (std::size_t o = creditLive_.next(0); o != SlotMask::kEnd;
         o = creditLive_.next(o + 1)) {
        OutPort &p = outs_[o];
        // Nothing due yet: receiving would be a no-op.
        if (p.next > now)
            continue;
        // A failed output's credits are meaningless (the tombstone
        // sink never spends them); discard so the channel drains and
        // the quiescence check sees every credit channel empty.
        if (p.failed)
            (void)p.creditIn->receive(now);
        else
            (void)p.creditIn->receiveByLane(
                now, std::span<int>(credits_).subspan(o * width, width));
        p.next = p.creditIn->nextArrival();
        if (p.next == kNoCycle)
            creditLive_.clear(o);
    }
}

void
SwitchBase::intake(Cycle now)
{
    for (std::size_t i = inLive_.next(0); i != SlotMask::kEnd;
         i = inLive_.next(i + 1)) {
        InPort &port = ins_[i];
        // Nothing due yet: peeking would find nothing.
        if (port.next > now)
            continue;
        if (!port.in->peek(now)) {
            port.next = port.in->nextArrival();
            continue;
        }
        // Whatever happens to the flit, the port's next arrival (and
        // whether it stays live) is known once it is off the link.
        Flit flit = port.in->receive(now);
        port.next = port.in->nextArrival();
        if (port.next == kNoCycle)
            inLive_.clear(i);
        if (port.failed) {
            // Dead link: whatever was still in flight is lost (the
            // fabrication path completes any cut-off packet instead).
            noteTombstone();
            continue;
        }
        MDW_ASSERT(flit.lane >= 0 && flit.lane < lanes(),
                   "switch %d input %zu: flit on lane %d of %d", id_,
                   i, flit.lane, lanes());
        InputFifo &fifo = fifos_[laneIdx(i, flit.lane)];
        MDW_ASSERT(fifo.freeSlots > 0,
                   "switch %d input %zu lane %d: flit arrived with "
                   "full FIFO (credit protocol violated)",
                   id_, i, flit.lane);
        --fifo.freeSlots;
        stats_.flitsIn.inc();
        if (flit.isHead()) {
            fifo.packets.push_back(PacketRecord{flit.pkt, 1});
            held_.set(laneIdx(i, flit.lane));
            decideAt_ = 0;
        } else {
            MDW_ASSERT(!fifo.packets.empty() &&
                           fifo.packets.back().pkt == flit.pkt,
                       "switch %d input %zu lane %d: interleaved "
                       "packets on one lane",
                       id_, i, flit.lane);
            ++fifo.packets.back().arrived;
        }
        if (sim_)
            sim_->noteProgress();
    }
}

void
SwitchBase::fabricateFailedArrivals()
{
    // A packet caught mid-reception on a now-dead link would leave
    // its FIFO slots (and, transitively, whatever the architecture
    // allocated for it downstream) occupied forever. Fabricate the
    // missing flits at wire speed: the packet then flows through the
    // normal pipeline and the poisoned id makes every NIC discard it
    // on arrival (end-to-end CRC model); retransmission re-covers the
    // destinations.
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputFifo &fifo = fifos_[i];
        if (!ins_[i / static_cast<std::size_t>(lanes())].failed)
            continue;
        PacketRecord &rec = fifo.packets.back();
        if (rec.arrived >= rec.pkt->totalFlits())
            continue;
        if (fifo.freeSlots <= 0)
            continue; // normal backpressure; retry next cycle
        poisonPacket(*rec.pkt);
        --fifo.freeSlots;
        ++rec.arrived;
        stats_.flitsIn.inc();
        if (sim_)
            sim_->noteProgress();
    }
}

void
SwitchBase::sampleLaneOccupancy(Cycle now)
{
    if (lanes() == 1)
        return;
    int occupied = 0;
    for (const InputFifo &fifo : fifos_)
        occupied += inputFlits_ - fifo.freeSlots;
    laneOcc_.update(static_cast<double>(occupied), now);
}

bool
SwitchBase::sendFlit(std::size_t p, int lane, const PacketPtr &pkt,
                     int seq, Cycle now)
{
    OutPort &port = outs_[p];
    if (port.failed) {
        // Tombstone sink: swallow the flit at wire speed so upstream
        // buffers recycle and sibling branches keep going.
        noteTombstone();
        if (sim_)
            sim_->noteProgress();
        return true;
    }
    int &held = credits(p, lane);
    if (held < 1 || portThrottled(port, now))
        return false;
    const bool reserved = seq != 0 || canStartPacket(p, lane, *pkt);
    if (port.out->busy(now)) {
        // The physical link already carried another lane's flit this
        // cycle; count it if this lane was otherwise ready.
        if (lanes() > 1 && reserved) {
            stats_.laneStallCycles.inc();
            traceWorm(WormEvent::LaneStall, now, *pkt,
                      static_cast<std::int32_t>(p));
        }
        return false;
    }
    if (!reserved) {
        stats_.reservationStallCycles.inc();
        traceWorm(WormEvent::ReserveStall, now, *pkt,
                  static_cast<std::int32_t>(p));
        return false;
    }
    port.out->sendUnchecked(Flit{pkt, seq, lane}, now);
    --held;
    notePortSend(p, lane);
    if (sim_)
        sim_->noteProgress();
    if (seq + 1 == pkt->totalFlits())
        traceWorm(WormEvent::TailDrain, now, *pkt,
                  static_cast<std::int32_t>(p));
    return true;
}

bool
SwitchBase::canStartPacket(std::size_t p, int lane,
                           const PacketDesc &pkt) const
{
    const OutPort &port = outs_[p];
    if (port.failed)
        return true; // Tombstone sink: accepts anything, instantly.
    const int held = credits(p, lane);
    if (port.mcastWholePacket && pkt.kind == PacketKind::HwMulticast)
        return held >= pkt.totalFlits();
    return held >= 1;
}

int
SwitchBase::serviceLaneMulti(Cycle now, int slot) const
{
    const int total = params_.lanes;
    // Class 1 owns the upper partition and is served first.
    const int base = laneClassBase(total, 1);
    const int latency = total - base;
    if (slot < latency)
        return base +
               static_cast<int>((now + static_cast<Cycle>(slot)) %
                                static_cast<Cycle>(latency));
    slot -= latency;
    return static_cast<int>((now + static_cast<Cycle>(slot)) %
                            static_cast<Cycle>(base));
}

int
SwitchBase::allocLane(const PacketDesc &pkt, Cycle now,
                      const std::function<int(int)> &laneCost) const
{
    const int base = laneClassBase(params_.lanes, pkt.trafficClass);
    int lane = base;
    if (params_.laneAlloc == LaneAlloc::Adaptive && laneCost) {
        // Cheapest lane of the class partition; ties go to the
        // lowest lane so the choice is deterministic.
        const int size =
            laneClassSize(params_.lanes, pkt.trafficClass);
        int best_cost = laneCost(base);
        for (int l = base + 1; l < base + size; ++l) {
            const int cost = laneCost(l);
            if (cost < best_cost) {
                best_cost = cost;
                lane = l;
            }
        }
    }
    if (params_.lanes > 1)
        traceWorm(WormEvent::LaneAlloc, now, pkt,
                  static_cast<std::int32_t>(lane));
    return lane;
}

void
SwitchBase::attachTelemetry(Telemetry &telemetry)
{
    tracer_ = telemetry.tracer();
    MetricsRegistry &reg = telemetry.registry();
    metricScope_ =
        reg.scope("switch.", static_cast<std::uint32_t>(id_));
    reg.registerCounter(metricScope_, "flits_in", &stats_.flitsIn);
    reg.registerCounter(metricScope_, "flits_out", &stats_.flitsOut);
    reg.registerCounter(metricScope_, "packets_routed",
                        &stats_.packetsRouted);
    reg.registerCounter(metricScope_, "replications",
                        &stats_.replications);
    reg.registerCounter(metricScope_, "reservation_stall_cycles",
                        &stats_.reservationStallCycles);
    reg.registerCounter(metricScope_, "tombstoned_flits",
                        &stats_.tombstonedFlits);
    reg.registerCounter(metricScope_, "unroutable_dests",
                        &stats_.unroutableDests);
    if (params_.lanes > 1) {
        reg.registerCounter(metricScope_, "lane.stall_cycles",
                            &stats_.laneStallCycles);
        reg.registerTimeAverage(metricScope_, "lane.occupancy_flits",
                                &laneOcc_);
    }
    for (std::size_t p = 0; p < outs_.size(); ++p) {
        if (!outs_[p].connected())
            continue;
        const MetricsRegistry::ScopeId port = reg.scope(
            "port.", static_cast<std::uint32_t>(p), metricScope_);
        reg.registerCounter(port, "tx_flits", &portTx_[p]);
        if (params_.lanes == 1)
            continue;
        for (int l = 0; l < params_.lanes; ++l) {
            reg.registerCounter(
                reg.scope("lane.", static_cast<std::uint32_t>(l), port),
                "tx_flits", &laneTx_[laneIdx(p, l)]);
        }
    }
}

PortId
SwitchBase::chooseUpPort(const RouteDecision &route,
                         const PacketDesc &pkt, int lane,
                         const std::function<bool(PortId)> &freeOk) const
{
    MDW_ASSERT(!route.upCandidates.empty(), "no up candidates");
    const auto &cands = route.upCandidates;
    const std::size_t n = cands.size();
    // Deterministic default: spread by source and packet id so
    // distinct flows take distinct up links; the packet's lane
    // rotates the choice (rotateUpCandidate) so each lane's flows
    // prefer a different up link. Lane 0 reduces to the single-lane
    // hash exactly.
    const std::size_t hash = rotateUpCandidate(
        (static_cast<std::size_t>(pkt.src) * 0x9e3779b9u +
         static_cast<std::size_t>(pkt.id) * 0x85ebca6bu) %
            n,
        lane, n);
    if (params_.upPolicy == UpPortPolicy::Deterministic || !freeOk)
        return cands[hash];
    // Adaptive: first available candidate scanning from the hash
    // position (ties broken by the hash so load still spreads).
    for (std::size_t i = 0; i < n; ++i) {
        const PortId cand = cands[(hash + i) % n];
        if (freeOk(cand))
            return cand;
    }
    return cands[hash];
}

} // namespace mdw
