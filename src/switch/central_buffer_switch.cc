#include "switch/central_buffer_switch.hh"

#include <algorithm>

#include "sim/system.hh"

namespace mdw {

namespace {

/** (port, lane) slots of a switch. */
std::size_t
slotCount(const SwitchRouting &routing, const SwitchParams &params)
{
    return static_cast<std::size_t>(routing.radix()) *
           static_cast<std::size_t>(params.lanes);
}

} // namespace

CentralBufferSwitch::CentralBufferSwitch(std::string name, SwitchId id,
                                         const SwitchRouting *routing,
                                         const SwitchParams &params,
                                         const CbParams &cbParams)
    : SwitchBase(std::move(name), id, routing, params,
                 cbParams.inputFifoFlits),
      cbParams_(cbParams),
      cq_(CqParams{cbParams.cqChunks, cbParams.chunkFlits,
                   routing->radix(),
                   cbParams.maxPacketFlits > 0
                       ? (cbParams.maxPacketFlits +
                          cbParams.chunkFlits - 1) /
                             cbParams.chunkFlits
                       : 0}),
      bypassOut_(slotCount(*routing, params)),
      streamOut_(slotCount(*routing, params))
{
    MDW_ASSERT(cbParams_.outputFifoFlits >= cbParams_.chunkFlits,
               "output FIFO must hold at least one chunk");
    const std::size_t slots = slotCount(*routing, params);
    inputs_.resize(slots);
    outputs_.resize(slots);
    writeArb_.resize(static_cast<int>(slots));
    readArb_.resize(static_cast<int>(slots));
}

int
CentralBufferSwitch::outputBacklog(PortId port, int lane) const
{
    const auto &output =
        outputs_.at(laneIdx(static_cast<std::size_t>(port), lane));
    int backlog = static_cast<int>(output.queue.size());
    if (!output.idle())
        ++backlog;
    return backlog;
}

int
CentralBufferSwitch::laneCost(const RouteDecision &route, int lane) const
{
    // Streams the new worm would queue behind on this lane, summed
    // over the outputs it must acquire.
    int cost = 0;
    for (const auto &[port, sub] : route.downBranches) {
        (void)sub;
        cost += outputBacklog(port, lane);
    }
    if (route.needsUp()) {
        int best = -1;
        for (PortId cand : route.upCandidates) {
            const int backlog = outputBacklog(cand, lane);
            if (best < 0 || backlog < best)
                best = backlog;
        }
        if (best > 0)
            cost += best;
    }
    return cost;
}

void
CentralBufferSwitch::setBarrierHooks(MakePacket makePacket,
                                     ReleaseFactory releaseFactory)
{
    makePacket_ = std::move(makePacket);
    releaseFactory_ = std::move(releaseFactory);
}

void
CentralBufferSwitch::configureBarrier(int group,
                                      BarrierSwitchEntry entry)
{
    MDW_ASSERT(makePacket_ != nullptr,
               "setBarrierHooks must precede configureBarrier");
    barrier_.configure(group, std::move(entry));
}

void
CentralBufferSwitch::step(Cycle now)
{
    collectCredits(now);
    intake(now);
    if (poisoned_) {
        // Fault paths, inert (never entered) without fault injection.
        fabricateFailedArrivals();
        drainTombstones(now);
    }
    // Each stage runs only when its mask, flag or gate says it can
    // act: a skipped stage would have found nothing to do (and its
    // arbiter, given no requesters, would not have moved).
    if (now >= decideAt_)
        decide(now);
    if (!barrierEmissions_.empty())
        processBarrierEmissions(now);
    if (bypassOut_.any())
        bypassTransmit(now);
    if (now >= writeAt_)
        cqWrite(now);
    if (activateDue_)
        activateStreams();
    if (now >= readAt_)
        cqRead(now);
    if (streamOut_.any())
        streamTransmit(now);
    // Sampled only when it changes: a repeated sample adds
    // value x cycles, and chunk and cycle counts are integers that a
    // double holds exactly, so the time average is bit-identical.
    const auto used = static_cast<double>(cq_.usedChunks());
    if (used != cqOcc_.current())
        cqOcc_.update(used, now);
    sampleLaneOccupancy(now);
}

Cycle
CentralBufferSwitch::nextWork(Cycle now)
{
    // Any buffered state keeps the switch ticking: input FIFOs,
    // per-output bypass/stream machinery, queued streams, pending
    // barrier releases, or central-queue residency. (CQ residency also
    // pins cqOcc_: the time average may only coast while its sampled
    // value is exactly zero.)
    if (inputsBuffered() || bypassOut_.any() || streamOut_.any())
        return now + 1;
    if (!barrierEmissions_.empty())
        return now + 1;
    if (cq_.entryCount() != 0 || cq_.usedChunks() != 0)
        return now + 1;
    return earliestLinkArrival();
}

void
CentralBufferSwitch::dumpState(FILE *out) const
{
    std::fprintf(out, "%s: cq used=%d/%d entries=%zu (%d lanes)\n",
                 name().c_str(), cq_.usedChunks(), cq_.capacityChunks(),
                 cq_.entryCount(), lanes());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const InputState &in = inputs_[i];
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty())
            continue;
        const PacketRecord &rec = fifo.packets.front();
        std::fprintf(out,
                     "  in%zu.%zu mode=%d pkts=%zu head=%s arrived=%d "
                     "consumed=%d outLane=%d entry=%d free=%d\n",
                     i / static_cast<std::size_t>(lanes()),
                     i % static_cast<std::size_t>(lanes()),
                     static_cast<int>(in.mode), fifo.packets.size(),
                     rec.pkt->toString().c_str(), rec.arrived,
                     in.consumed, in.outLane, in.entry, fifo.freeSlots);
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out_state = outputs_[o];
        if (out_state.idle() && out_state.queue.empty())
            continue;
        const std::size_t port = o / static_cast<std::size_t>(lanes());
        const std::size_t lane = o % static_cast<std::size_t>(lanes());
        std::fprintf(out,
                     "  out%zu.%zu mode=%d queue=%zu fifo=%d read=%d "
                     "sent=%d credits=%d cur=%s\n",
                     port, lane, static_cast<int>(out_state.mode),
                     out_state.queue.size(), out_state.fifoFlits,
                     out_state.readSeq, out_state.sentSeq,
                     credits(port, static_cast<int>(lane)),
                     out_state.current.branchPkt
                         ? out_state.current.branchPkt->toString().c_str()
                         : "-");
    }
}

bool
CentralBufferSwitch::quiescent(std::string *why) const
{
    bool ok = SwitchBase::quiescent(why);
    auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        ok = false;
    };
    if (cq_.entryCount() != 0)
        complain("central queue holds " +
                 std::to_string(cq_.entryCount()) + " entries");
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out = outputs_[o];
        if (!out.idle() || !out.queue.empty() || out.fifoFlits != 0)
            complain("output " + std::to_string(o) +
                     " still streaming");
    }
    return ok;
}

bool
CentralBufferSwitch::activityExact(std::string *why) const
{
    bool ok = SwitchBase::activityExact(why);
    auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        ok = false;
    };
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out = outputs_[o];
        const std::string state =
            " in output mode " + std::to_string(static_cast<int>(out.mode)) +
            " with " + std::to_string(out.queue.size()) + " queued";
        auto check = [&](const SlotMask &mask, const char *what,
                         bool expect) {
            if (mask.test(o) != expect)
                complain(std::string(what) + "-output bit " +
                         std::to_string(o) + " is " +
                         std::to_string(mask.test(o)) + state);
        };
        check(bypassOut_, "bypass", out.mode == OutputState::Mode::Bypass);
        check(streamOut_, "stream",
              out.mode == OutputState::Mode::Stream || !out.queue.empty());
        if (out.fifoFlits > 0 && out.mode != OutputState::Mode::Stream)
            complain("output " + std::to_string(o) + " stages " +
                     std::to_string(out.fifoFlits) +
                     " flits outside a stream");
    }
    if (sim_ == nullptr)
        return ok;
    // Every gate must open by the earliest cycle its stage can act:
    // the next step (now) when it can act at once, else when enough
    // flits can have arrived (one per cycle per input FIFO, taken in
    // by intake() ahead of the stages, so counted from the last step)
    // or left (one per cycle per output FIFO, sent after cqRead(), so
    // counted from the next step).
    const Cycle now = sim_->now();
    auto checkGate = [&](const char *what, Cycle gate, std::size_t slot,
                         Cycle earliest) {
        if (gate > earliest)
            complain(std::string(what) + " gate " + std::to_string(gate) +
                     " after slot " + std::to_string(slot) +
                     " can act at " + std::to_string(earliest));
    };
    auto after = [now](int flits) {
        return flits <= 0 ? now : now + static_cast<Cycle>(flits - 1);
    };
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        const InputState &in = inputs_[i];
        const PacketRecord &rec = fifos_[i].packets.front();
        const int total = rec.pkt->totalFlits();
        if (in.mode == InMode::Deciding) {
            // A complete header; a barrier token is absorbed whole.
            const int needed = rec.pkt->kind == PacketKind::BarrierArrive
                                   ? total
                                   : rec.pkt->headerFlits;
            checkGate("decide", decideAt_, i, after(needed - rec.arrived));
        } else if (in.mode == InMode::CentralQueue) {
            // A staged chunk, or the staged tail of the packet.
            const int staged = rec.arrived - in.consumed;
            const int missing =
                std::min(cbParams_.chunkFlits - staged, total - rec.arrived);
            checkGate("CQ-write", writeAt_, i, after(missing));
        }
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const OutputState &out = outputs_[o];
        if (out.idle() && !out.queue.empty() && !activateDue_)
            complain("output " + std::to_string(o) +
                     " idle with queued branches and no activation due");
        if (out.mode != OutputState::Mode::Stream ||
            out.readSeq >= out.current.branchPkt->totalFlits() ||
            cq_.readable(out.current.entry, out.current.reader) <= 0)
            continue;
        // A readable chunk and room for it.
        const int short_by = cbParams_.chunkFlits -
                             (cbParams_.outputFifoFlits - out.fifoFlits);
        checkGate("CQ-read", readAt_, o,
                  now + static_cast<Cycle>(std::max(0, short_by)));
    }
    return ok;
}

void
CentralBufferSwitch::drainTombstones(Cycle now)
{
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        if (input.mode != InMode::Tombstone)
            continue;
        const PacketRecord &rec = fifos_[i].packets.front();
        const int staged = rec.arrived - input.consumed;
        const int n = std::min(staged, cbParams_.chunkFlits);
        if (n <= 0)
            continue;
        input.consumed += n;
        releaseInput(i, n, now);
        stats_.tombstonedFlits.inc(static_cast<std::uint64_t>(n));
        if (sim_)
            sim_->noteProgress();
        if (input.consumed == rec.pkt->totalFlits())
            finishHeadPacket(i);
    }
}

void
CentralBufferSwitch::attachTelemetry(Telemetry &telemetry)
{
    SwitchBase::attachTelemetry(telemetry);
    MetricsRegistry &reg = telemetry.registry();
    reg.registerTimeAverage(metricScope_, "cq.occupancy_chunks",
                            &cqOcc_);
    reg.registerIntGauge(metricScope_, "cq.capacity_chunks", &cq_,
                         [](const void *cq) {
                             return static_cast<std::uint64_t>(
                                 static_cast<const CentralQueue *>(cq)
                                     ->capacityChunks());
                         });
    reg.registerCounter(metricScope_, "barrier.tokens_combined",
                        &barrierTokens_);
    reg.registerIntGauge(metricScope_, "arb.write_grants", &writeArb_,
                         readGrants);
    reg.registerIntGauge(metricScope_, "arb.read_grants", &readArb_,
                         readGrants);
}

void
CentralBufferSwitch::decide(Cycle now)
{
    // Rebuilt from every deciding input (a pop during the pass sets it
    // to 0 for the new head).
    decideAt_ = kNoCycle;
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        if (input.mode != InMode::Deciding)
            continue;
        const PacketRecord &rec = fifos_[i].packets.front();
        MDW_ASSERT(rec.pkt->headerFlits <= cbParams_.inputFifoFlits,
                   "header (%d flits) exceeds input FIFO (%d flits); "
                   "enlarge cb.inputFifoFlits",
                   rec.pkt->headerFlits, cbParams_.inputFifoFlits);
        // Waiting for flits: the FIFO gains at most one per cycle.
        if (rec.arrived < rec.pkt->headerFlits) {
            decideAt_ = std::min(
                decideAt_,
                now + static_cast<Cycle>(rec.pkt->headerFlits - rec.arrived));
            continue;
        }

        if (rec.pkt->kind == PacketKind::BarrierArrive) {
            // Combined by the barrier unit, never routed. Absorb the
            // token once it has fully arrived.
            const int missing = rec.pkt->totalFlits() - rec.arrived;
            if (missing == 0)
                consumeBarrierToken(i, now);
            else
                decideAt_ =
                    std::min(decideAt_, now + static_cast<Cycle>(missing));
            continue;
        }

        // Decode once per worm: a multicast waiting for its
        // reservation keeps its parked route unless the table was
        // swapped.
        const RouteDecision *route = nullptr;
        RouteDecision decoded;
        if (input.parked != kNotParked &&
            parked_[input.parked].routedBy == routing_) {
            route = &parked_[input.parked].route;
        } else {
            decoded = routing_->decode(rec.pkt->dests, params_.variant);
            traceWorm(WormEvent::HeaderDecode, now, *rec.pkt,
                      static_cast<std::int32_t>(i));
            noteUnroutable(decoded);
            route = &decoded;
        }
        if (route->downBranches.empty() && !route->needsUp()) {
            // Every destination lost its path (post-fault tolerant
            // table): swallow the worm here and let the source's
            // retransmission logic classify the destinations.
            poisonPacket(*rec.pkt);
            unpark(i);
            input.mode = InMode::Tombstone;
            input.consumed = 0;
            continue;
        }
        if (rec.pkt->kind != PacketKind::HwMulticast) {
            decideUnicast(i, *route, now);
        } else if (decideMulticast(i, *route, now)) {
            unpark(i);
        } else {
            // Waiting for its reservation: retry every cycle.
            decideAt_ = std::min(decideAt_, now + 1);
            if (route == &decoded)
                park(i, std::move(decoded));
        }
    }
}

void
CentralBufferSwitch::park(std::size_t i, RouteDecision &&route)
{
    InputState &input = inputs_[i];
    if (input.parked == kNotParked) {
        if (freeParked_.empty()) {
            MDW_ASSERT(parked_.size() < kNotParked,
                       "switch %d: too many parked routes", id_);
            input.parked = static_cast<std::uint16_t>(parked_.size());
            parked_.emplace_back();
        } else {
            input.parked = freeParked_.back();
            freeParked_.pop_back();
        }
    }
    ParkedRoute &slot = parked_[input.parked];
    slot.route = std::move(route);
    slot.routedBy = routing_;
}

void
CentralBufferSwitch::unpark(std::size_t i)
{
    InputState &input = inputs_[i];
    if (input.parked == kNotParked)
        return;
    freeParked_.push_back(input.parked);
    input.parked = kNotParked;
}

void
CentralBufferSwitch::consumeBarrierToken(std::size_t i, Cycle now)
{
    const std::size_t port = i / static_cast<std::size_t>(lanes());
    const PacketDesc &token = *fifos_[i].packets.front().pkt;
    const int flits = token.totalFlits();
    const int group = token.barrierGroup;
    popInputPacket(i);
    releaseInput(i, flits, now);
    barrierTokens_.inc();
    if (sim_)
        sim_->noteProgress();

    const BarrierUnit::Emit emit =
        barrier_.onArrive(group, static_cast<PortId>(port));
    if (emit.group >= 0)
        barrierEmissions_.push_back(emit);
}

void
CentralBufferSwitch::processBarrierEmissions(Cycle now)
{
    while (!barrierEmissions_.empty()) {
        const BarrierUnit::Emit emit = barrierEmissions_.front();
        if (emit.release) {
            // Originate the release multidestination worm. The root
            // stage down-reaches every member, so this is an ordinary
            // down-phase reservation.
            PacketDesc desc = releaseFactory_(emit.group);
            if (!cq_.canReserve(desc.totalFlits())) {
                stats_.reservationStallCycles.inc();
                return; // retry next cycle, in order
            }
            const RouteDecision route =
                routing_->decode(desc.dests, params_.variant);
            MDW_ASSERT(!route.needsUp(),
                       "barrier release not fully down-reachable "
                       "from the combining root");
            const PacketPtr pkt = makePacket_(std::move(desc));
            const auto entry = cq_.addReserved(
                pkt, static_cast<int>(route.downBranches.size()));
            cq_.write(entry, pkt->totalFlits());
            readAt_ = 0;
            stats_.packetsRouted.inc();
            if (route.downBranches.size() > 1) {
                stats_.replications.inc(route.downBranches.size() - 1);
                traceWorm(WormEvent::Replicate, now, *pkt,
                          static_cast<std::int32_t>(
                              route.downBranches.size() - 1));
            }
            int reader = 0;
            // Barrier releases ride lane 0: they are serial control
            // traffic, and pinning them keeps the combining tree
            // independent of the lane configuration.
            for (const auto &[port, sub] : route.downBranches)
                enqueueBranch(laneIdx(static_cast<std::size_t>(port), 0),
                              QueueItem{entry, reader++,
                                        pruneBranch(pkt, sub)});
        } else {
            // Forward one combined token toward the tree parent; it
            // occupies one chunk, claimed before the entry exists so
            // a full queue just defers the emission.
            if (cq_.freeChunks() < 1) {
                stats_.reservationStallCycles.inc();
                return; // retry next cycle, in order
            }
            PacketDesc desc;
            desc.src = kInvalidNode;
            desc.dests = DestSet(routing_->numHosts());
            desc.kind = PacketKind::BarrierArrive;
            desc.headerFlits = 2;
            desc.payloadFlits = 0;
            desc.barrierGroup = emit.group;
            const PacketPtr pkt = makePacket_(std::move(desc));
            const auto entry = cq_.addUnreserved(pkt, 1);
            cq_.write(entry, pkt->totalFlits());
            readAt_ = 0;
            enqueueBranch(laneIdx(static_cast<std::size_t>(emit.upPort), 0),
                          QueueItem{entry, 0, pkt});
        }
        barrierEmissions_.pop_front();
        if (sim_)
            sim_->noteProgress();
    }
}

void
CentralBufferSwitch::decideUnicast(std::size_t i,
                                   const RouteDecision &route,
                                   Cycle now)
{
    InputState &input = inputs_[i];
    const PacketPtr &pkt = fifos_[i].packets.front().pkt;

    const int lane =
        allocLane(*pkt, now, [&](int l) { return laneCost(route, l); });
    input.outLane = lane;
    PortId target = kInvalidPort;
    PacketPtr branch_pkt;
    if (route.needsUp()) {
        // Prefer an up port we could bypass through right now.
        target = chooseUpPort(route, *pkt, lane, [this, lane](PortId p) {
            const OutputState &out =
                outputs_[laneIdx(static_cast<std::size_t>(p), lane)];
            return out.idle() && out.queue.empty();
        });
        branch_pkt = pkt;
    } else {
        MDW_ASSERT(route.downBranches.size() == 1,
                   "unicast decoded to %zu down branches",
                   route.downBranches.size());
        target = route.downBranches.front().first;
        branch_pkt = pruneBranch(pkt, route.downBranches.front().second);
    }

    const std::size_t o = laneIdx(static_cast<std::size_t>(target), lane);
    OutputState &output = outputs_[o];
    stats_.packetsRouted.inc();
    input.consumed = 0;
    if (output.idle() && output.queue.empty()) {
        // Claim the bypass crossbar path.
        output.mode = OutputState::Mode::Bypass;
        output.bypassInput = static_cast<int>(i);
        output.sentSeq = 0;
        bypassOut_.set(o);
        input.mode = InMode::Bypass;
        input.bypassPort = target;
        input.bypassPkt = std::move(branch_pkt);
    } else {
        input.entry = cq_.addUnreserved(pkt, 1);
        input.mode = InMode::CentralQueue;
        writeAt_ = 0;
        enqueueBranch(o, QueueItem{input.entry, 0, std::move(branch_pkt)});
    }
}

bool
CentralBufferSwitch::decideMulticast(std::size_t i,
                                     const RouteDecision &route,
                                     Cycle now)
{
    InputState &input = inputs_[i];
    const PacketPtr &pkt = fifos_[i].packets.front().pkt;

    // Whole-packet chunk reservation is the acceptance condition: the
    // head waits at the FIFO head (stalling this input) until the
    // central queue can guarantee storage for the entire worm.
    if (!cq_.canReserve(pkt->totalFlits(), route.needsUp())) {
        stats_.reservationStallCycles.inc();
        traceWorm(WormEvent::ReserveStall, now, *pkt,
                  static_cast<std::int32_t>(i));
        return false;
    }

    // One lane for the whole worm, decided before the branch list:
    // every replication branch must queue on the same lane class, or
    // a branch on a bulk lane could stall the shared central-queue
    // entry behind bulk traffic and defeat the class isolation.
    const int lane =
        allocLane(*pkt, now, [&](int l) { return laneCost(route, l); });
    input.outLane = lane;

    // Materialize branch list: down branches plus at most one up port
    // (adaptive choice prefers the least-backlogged candidate).
    std::vector<std::pair<PortId, PacketPtr>> branches;
    branches.reserve(route.downBranches.size() + 1);
    for (const auto &[port, sub] : route.downBranches)
        branches.emplace_back(port, pruneBranch(pkt, sub));
    if (route.needsUp()) {
        PortId best = chooseUpPort(route, *pkt, lane, [this, lane](PortId p) {
            return outputBacklog(p, lane) == 0;
        });
        if (params_.upPolicy == UpPortPolicy::Adaptive) {
            // Refine: among candidates pick minimum backlog.
            int best_cost = outputBacklog(best, lane);
            for (PortId cand : route.upCandidates) {
                const int cost = outputBacklog(cand, lane);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = cand;
                }
            }
        }
        branches.emplace_back(best, pruneBranch(pkt, route.upDests));
    }
    MDW_ASSERT(!branches.empty(), "multicast decoded to no branches");

    input.entry =
        cq_.addReserved(pkt, static_cast<int>(branches.size()));
    input.mode = InMode::CentralQueue;
    writeAt_ = 0;
    input.consumed = 0;
    stats_.packetsRouted.inc();
    if (branches.size() > 1) {
        stats_.replications.inc(branches.size() - 1);
        traceWorm(WormEvent::Replicate, now, *pkt,
                  static_cast<std::int32_t>(branches.size() - 1));
    }
    for (std::size_t b = 0; b < branches.size(); ++b)
        enqueueBranch(
            laneIdx(static_cast<std::size_t>(branches[b].first), lane),
            QueueItem{input.entry, static_cast<int>(b),
                      std::move(branches[b].second)});
    return true;
}

void
CentralBufferSwitch::bypassTransmit(Cycle now)
{
    // Only ports with a bypassing lane; every lane of such a port,
    // in service order.
    const auto width = static_cast<std::size_t>(lanes());
    for (std::size_t s = bypassOut_.next(0); s != SlotMask::kEnd;
         s = bypassOut_.next((s / width + 1) * width)) {
        const std::size_t p = s / width;
        // Latency-class lanes are served first, rotating within each
        // class partition (see serviceLane); with one lane this is
        // lane 0 every cycle (the pre-lane iteration order).
        for (int k = 0; k < lanes(); ++k) {
            const int lane = serviceLane(now, k);
            const std::size_t o = laneIdx(p, lane);
            OutputState &output = outputs_[o];
            if (output.mode != OutputState::Mode::Bypass)
                continue;
            const auto in = static_cast<std::size_t>(output.bypassInput);
            InputState &input = inputs_[in];
            if (input.consumed >= fifos_[in].packets.front().arrived)
                continue;
            // Bypass carries only non-HwMulticast packets (decide()
            // queues every multicast in the central queue), so the
            // reservation rule never holds a bypass head back.
            if (!sendFlit(p, lane, input.bypassPkt, output.sentSeq, now))
                continue;
            ++output.sentSeq;
            ++input.consumed;
            releaseInput(in, 1, now);
            if (output.sentSeq == input.bypassPkt->totalFlits()) {
                finishOutput(o);
                finishHeadPacket(in);
            }
        }
    }
}

void
CentralBufferSwitch::cqWrite(Cycle now)
{
    // One chunk write per cycle: round-robin over inputs that have a
    // full chunk staged (or the complete tail) to keep chunks packed.
    // The gate is rebuilt from every CQ-mode input: the losers and
    // any input waiting for a free chunk look again next cycle.
    eligible_.clear();
    writeAt_ = kNoCycle;
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        if (input.mode != InMode::CentralQueue)
            continue;
        const Cycle at = writeBound(i, now);
        if (at > now) {
            writeAt_ = std::min(writeAt_, at); // still staging
            continue;
        }
        if (cq_.writable(input.entry) <= 0) {
            // Central queue full (unicast path only).
            writeAt_ = std::min(writeAt_, now + 1);
            continue;
        }
        // Note: no write throttling while reservations wait — holding
        // back a unicast that is already at the head of an output
        // queue would block the very readers whose recycled chunks
        // the waiting worm needs; the up-phase headroom partition is
        // what guarantees forward progress.
        eligible_.push_back(static_cast<int>(i));
    }
    const int winner = writeArb_.grantFrom(eligible_);
    if (winner < 0)
        return;
    if (eligible_.size() > 1)
        writeAt_ = std::min(writeAt_, now + 1);

    const auto i = static_cast<std::size_t>(winner);
    InputState &input = inputs_[i];
    const PacketRecord &rec = fifos_[i].packets.front();
    const int staged = rec.arrived - input.consumed;
    const int n = std::min({staged, cbParams_.chunkFlits,
                            cq_.writable(input.entry)});
    MDW_ASSERT(n > 0, "eligible input with nothing to write");
    cq_.write(input.entry, n);
    readAt_ = 0;
    input.consumed += n;
    releaseInput(i, n, now);
    if (sim_)
        sim_->noteProgress();

    if (input.consumed == rec.pkt->totalFlits())
        finishHeadPacket(i);
    else
        writeAt_ = std::min(writeAt_, std::max(writeBound(i, now), now + 1));
}

Cycle
CentralBufferSwitch::writeBound(std::size_t i, Cycle now) const
{
    const PacketRecord &rec = fifos_[i].packets.front();
    const int staged = rec.arrived - inputs_[i].consumed;
    const int missing = rec.pkt->totalFlits() - rec.arrived;
    if (staged > 0 && (staged >= cbParams_.chunkFlits || missing == 0))
        return now;
    // The FIFO gains at most one flit per cycle.
    return now + static_cast<Cycle>(
                     std::min(cbParams_.chunkFlits - staged, missing));
}

void
CentralBufferSwitch::releaseInput(std::size_t i, int n, Cycle now)
{
    fifos_[i].freeSlots += n;
    const InPort &in = ins_[i / static_cast<std::size_t>(lanes())];
    if (in.creditOut)
        in.creditOut->send(
            n, now,
            static_cast<int>(i % static_cast<std::size_t>(lanes())));
}

void
CentralBufferSwitch::finishHeadPacket(std::size_t i)
{
    // The head packet has fully left the input FIFO; the input is
    // free to decode the next packet even while the central queue
    // still drains the previous one.
    popInputPacket(i);
    InputState &input = inputs_[i];
    MDW_ASSERT(input.parked == kNotParked,
               "switch %d input %zu: finished head still parked", id_, i);
    input = InputState{};
}

void
CentralBufferSwitch::enqueueBranch(std::size_t o, QueueItem item)
{
    OutputState &output = outputs_[o];
    output.queue.push_back(std::move(item));
    streamOut_.set(o);
    if (output.idle())
        activateDue_ = true;
}

void
CentralBufferSwitch::finishOutput(std::size_t o)
{
    OutputState &output = outputs_[o];
    if (output.mode == OutputState::Mode::Bypass)
        bypassOut_.clear(o);
    output.mode = OutputState::Mode::Idle;
    output.bypassInput = -1;
    output.current = QueueItem{};
    output.fifoFlits = 0;
    output.readSeq = 0;
    output.sentSeq = 0;
    if (output.queue.empty())
        streamOut_.clear(o);
    else
        activateDue_ = true;
}

void
CentralBufferSwitch::activateStreams()
{
    activateDue_ = false;
    for (std::size_t o = streamOut_.next(0); o != SlotMask::kEnd;
         o = streamOut_.next(o + 1)) {
        OutputState &output = outputs_[o];
        if (output.idle() && !output.queue.empty()) {
            output.current = std::move(output.queue.front());
            output.queue.pop_front();
            output.mode = OutputState::Mode::Stream;
            output.fifoFlits = 0;
            output.readSeq = 0;
            output.sentSeq = 0;
            // The current stream may trickle through the escape
            // chunk when the shared pool is exhausted.
            // A queued branch has read nothing yet, so its entry
            // cannot have retired (and its id cannot be reissued).
            MDW_ASSERT(cq_.alive(output.current.entry),
                       "switch %d output %zu: queued stream's entry %d "
                       "retired before it was read",
                       id_, o, output.current.entry);
            cq_.grantEscape(output.current.entry);
            readAt_ = 0;
        }
    }
}

void
CentralBufferSwitch::cqRead(Cycle now)
{
    // One chunk read per cycle: round-robin over streaming outputs
    // whose staging FIFO can take a chunk. The gate is rebuilt from
    // every stream: the losers look again next cycle.
    eligible_.clear();
    readAt_ = kNoCycle;
    for (std::size_t o = streamOut_.next(0); o != SlotMask::kEnd;
         o = streamOut_.next(o + 1)) {
        if (outputs_[o].mode != OutputState::Mode::Stream)
            continue;
        const Cycle at = readBound(o, now);
        if (at > now) {
            readAt_ = std::min(readAt_, at);
            continue;
        }
        eligible_.push_back(static_cast<int>(o));
    }
    const int winner = readArb_.grantFrom(eligible_);
    if (winner < 0)
        return;
    if (eligible_.size() > 1)
        readAt_ = std::min(readAt_, now + 1);
    const auto o = static_cast<std::size_t>(winner);
    OutputState &output = outputs_[o];
    const int n = cq_.read(output.current.entry, output.current.reader,
                           cbParams_.chunkFlits);
    MDW_ASSERT(n > 0, "eligible output read nothing");
    output.fifoFlits += n;
    output.readSeq += n;
    readAt_ = std::min(readAt_, std::max(readBound(o, now), now + 1));
    if (sim_)
        sim_->noteProgress();
}

Cycle
CentralBufferSwitch::readBound(std::size_t o, Cycle now) const
{
    const OutputState &output = outputs_[o];
    if (output.readSeq >= output.current.branchPkt->totalFlits())
        return kNoCycle; // fully fetched; entry may already be recycled
    if (cq_.readable(output.current.entry, output.current.reader) <= 0)
        return kNoCycle; // a CQ write opens the gate
    const int space = cbParams_.outputFifoFlits - output.fifoFlits;
    // The output FIFO loses at most one flit per cycle.
    return now + static_cast<Cycle>(
                     std::max(0, cbParams_.chunkFlits - space));
}

void
CentralBufferSwitch::streamTransmit(Cycle now)
{
    // Same port and lane visiting order as bypassTransmit, over the
    // ports with a streaming or queued lane.
    const auto width = static_cast<std::size_t>(lanes());
    for (std::size_t s = streamOut_.next(0); s != SlotMask::kEnd;
         s = streamOut_.next((s / width + 1) * width)) {
        const std::size_t p = s / width;
        for (int k = 0; k < lanes(); ++k) {
            const int lane = serviceLane(now, k);
            const std::size_t o = laneIdx(p, lane);
            OutputState &output = outputs_[o];
            if (output.mode != OutputState::Mode::Stream)
                continue;
            if (output.fifoFlits <= 0)
                continue;
            const PacketPtr &pkt = output.current.branchPkt;
            if (!sendFlit(p, lane, pkt, output.sentSeq, now))
                continue;
            ++output.sentSeq;
            --output.fifoFlits;
            if (output.sentSeq == pkt->totalFlits())
                finishOutput(o);
        }
    }
}

} // namespace mdw
