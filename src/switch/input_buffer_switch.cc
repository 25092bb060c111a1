#include "switch/input_buffer_switch.hh"

#include <algorithm>

#include "sim/system.hh"

namespace mdw {

InputBufferSwitch::InputBufferSwitch(std::string name, SwitchId id,
                                     const SwitchRouting *routing,
                                     const SwitchParams &params,
                                     const IbParams &ibParams)
    : SwitchBase(std::move(name), id, routing, params,
                 ibParams.bufferFlits)
{
    const auto radix = static_cast<std::size_t>(routing->radix());
    const auto slots = radix * static_cast<std::size_t>(lanes());
    inputs_.resize(slots);
    outputs_.resize(slots);
    outputArb_.resize(slots);
    branchOf_.resize(slots);
    for (auto &arb : outputArb_)
        arb.resize(static_cast<int>(slots));
    syncArb_.resize(static_cast<int>(slots));
}

bool
InputBufferSwitch::fullyGranted(const InputState &input)
{
    if (!input.decoded || input.upPending || input.branches.empty())
        return false;
    for (const Branch &branch : input.branches) {
        if (!branch.granted)
            return false;
    }
    return true;
}

void
InputBufferSwitch::dumpState(FILE *out) const
{
    std::fprintf(out, "%s: input-buffer switch (%d lanes)\n",
                 name().c_str(), lanes());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
        const InputState &in = inputs_[i];
        const InputFifo &fifo = fifos_[i];
        if (fifo.packets.empty())
            continue;
        const PacketRecord &rec = fifo.packets.front();
        std::fprintf(out,
                     "  in%zu.%zu pkts=%zu head=%s arrived=%d "
                     "released=%d decoded=%d outLane=%d upPending=%d "
                     "free=%d\n",
                     i / static_cast<std::size_t>(lanes()),
                     i % static_cast<std::size_t>(lanes()),
                     fifo.packets.size(), rec.pkt->toString().c_str(),
                     rec.arrived, in.released, in.decoded, in.outLane,
                     in.upPending, fifo.freeSlots);
        for (const Branch &branch : in.branches) {
            std::fprintf(out, "    branch port=%d sent=%d granted=%d\n",
                         branch.port, branch.sent, branch.granted);
        }
    }
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        if (!outputs_[o].busy())
            continue;
        const std::size_t port = o / static_cast<std::size_t>(lanes());
        const std::size_t lane = o % static_cast<std::size_t>(lanes());
        std::fprintf(out,
                     "  out%zu.%zu bound to in%d branch %d credits=%d\n",
                     port, lane, outputs_[o].boundInput,
                     outputs_[o].boundBranch,
                     credits(port, static_cast<int>(lane)));
    }
}

void
InputBufferSwitch::step(Cycle now)
{
    collectCredits(now);
    intake(now);
    if (poisoned_)
        fabricateFailedArrivals();
    decodeHeads(now);
    if (params_.replication == ReplicationMode::Synchronous) {
        arbitrateSync();
        transmitSync(now);
    } else {
        arbitrate();
        transmit(now);
    }
    release(now);
    sampleLaneOccupancy(now);
}

Cycle
InputBufferSwitch::nextWork(Cycle now)
{
    // Buffered packets cover every ongoing activity: branches and
    // output bindings only exist for a resident head packet, and
    // release() frees slots only while packets are queued.
    if (inputsBuffered())
        return now + 1;
    for (const OutputState &output : outputs_) {
        if (output.busy())
            return now + 1;
    }
    return earliestLinkArrival();
}

int
InputBufferSwitch::laneCost(const RouteDecision &route, int lane) const
{
    // Busy required output slots on this lane: each one is a stream
    // the new worm would queue behind.
    int cost = 0;
    for (const auto &[port, sub] : route.downBranches) {
        (void)sub;
        if (outputs_[laneIdx(static_cast<std::size_t>(port), lane)]
                .busy())
            ++cost;
    }
    if (route.needsUp()) {
        bool any_free = false;
        for (PortId cand : route.upCandidates) {
            if (!outputs_[laneIdx(static_cast<std::size_t>(cand),
                                  lane)]
                     .busy())
                any_free = true;
        }
        if (!any_free)
            ++cost;
    }
    return cost;
}

void
InputBufferSwitch::decodeHeads(Cycle now)
{
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        if (input.decoded)
            continue;
        const PacketRecord &rec = fifos_[i].packets.front();
        if (rec.arrived < rec.pkt->headerFlits)
            continue;
        MDW_ASSERT(rec.pkt->totalFlits() <= inputFlits_,
                   "packet %llu (%d flits) exceeds input buffer "
                   "(%d flits)",
                   static_cast<unsigned long long>(rec.pkt->id),
                   rec.pkt->totalFlits(), inputFlits_);

        const RouteDecision route =
            routing_->decode(rec.pkt->dests, params_.variant);
        traceWorm(WormEvent::HeaderDecode, now, *rec.pkt);
        noteUnroutable(route);
        if (route.downBranches.empty() && !route.needsUp()) {
            // Every destination lost its route to the faults: poison
            // the packet and drain it branchless (release() consumes
            // it at arrival speed).
            poisonPacket(*rec.pkt);
            input.branches.clear();
            input.upPending = false;
            input.decoded = true;
            input.released = 0;
            stats_.packetsRouted.inc();
            continue;
        }
        // One lane choice per worm, applied to every replication
        // branch: a multidestination worm must hold the same lane
        // class on all of its output branches, or a branch on a bulk
        // lane could stall the whole worm behind bulk traffic and
        // defeat the class isolation.
        input.outLane = allocLane(*rec.pkt, now, [&](int lane) {
            return laneCost(route, lane);
        });
        input.branches.clear();
        input.branches.reserve(route.downBranches.size() + 1);
        for (const auto &[port, sub] : route.downBranches)
            input.branches.push_back(
                Branch{port, pruneBranch(rec.pkt, sub), 0, false});
        input.upPending = false;
        if (route.needsUp()) {
            if (params_.upPolicy == UpPortPolicy::Deterministic) {
                const PortId up = chooseUpPort(route, *rec.pkt,
                                               input.outLane, nullptr);
                input.branches.push_back(
                    Branch{up, pruneBranch(rec.pkt, route.upDests), 0,
                           false});
            } else {
                input.upPending = true;
                input.upCandidates.assign(route.upCandidates.begin(),
                                          route.upCandidates.end());
                input.upDests = route.upDests;
            }
        }
        input.decoded = true;
        input.released = 0;
        stats_.packetsRouted.inc();
        const std::size_t copies =
            route.downBranches.size() + (route.needsUp() ? 1 : 0);
        if (copies > 1) {
            stats_.replications.inc(copies - 1);
            traceWorm(WormEvent::Replicate, now, *rec.pkt,
                      static_cast<std::int32_t>(copies - 1));
        }
    }
}

void
InputBufferSwitch::arbitrate()
{
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const std::size_t port = o / static_cast<std::size_t>(lanes());
        const int lane = static_cast<int>(
            o % static_cast<std::size_t>(lanes()));
        if (outputs_[o].busy() || !outs_[port].connected())
            continue;
        // Gather inputs requesting this (output, lane): a concrete
        // ungranted branch on this lane (the last such branch of an
        // input wins), or an unresolved adaptive up-port request
        // whose worm was allocated this lane.
        requesters_.clear();
        for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
             i = held_.next(i + 1)) {
            const InputState &input = inputs_[i];
            if (!input.decoded || input.outLane != lane)
                continue;
            int branch_idx = -1;
            for (std::size_t b = 0; b < input.branches.size(); ++b) {
                const Branch &branch = input.branches[b];
                if (!branch.granted && !branch.done() &&
                    branch.port == static_cast<PortId>(port))
                    branch_idx = static_cast<int>(b);
            }
            if (branch_idx < 0 && input.upPending &&
                std::find(input.upCandidates.begin(),
                          input.upCandidates.end(),
                          static_cast<PortId>(port)) !=
                    input.upCandidates.end())
                branch_idx = -2; // up request marker
            if (branch_idx != -1) {
                requesters_.push_back(static_cast<int>(i));
                branchOf_[i] = branch_idx;
            }
        }

        const int winner = outputArb_[o].grantFrom(requesters_);
        if (winner < 0)
            continue;
        InputState &input = inputs_[static_cast<std::size_t>(winner)];
        int branch_idx = branchOf_[static_cast<std::size_t>(winner)];
        if (branch_idx == -2) {
            // Adaptive up request: materialize the up branch here.
            const PacketPtr &pkt =
                fifos_[static_cast<std::size_t>(winner)]
                    .packets.front()
                    .pkt;
            input.branches.push_back(
                Branch{static_cast<PortId>(port),
                       pruneBranch(pkt, input.upDests), 0, true});
            input.upPending = false;
            branch_idx = static_cast<int>(input.branches.size()) - 1;
        } else {
            input.branches[static_cast<std::size_t>(branch_idx)]
                .granted = true;
        }
        outputs_[o].boundInput = winner;
        outputs_[o].boundBranch = branch_idx;
    }
}

void
InputBufferSwitch::transmit(Cycle now)
{
    for (std::size_t port = 0; port < outs_.size(); ++port) {
        // Latency-class lanes are served first, rotating within each
        // class partition (see serviceLane); with one lane this is
        // lane 0 every cycle (the pre-lane iteration order).
        for (int k = 0; k < lanes(); ++k) {
            const int lane = serviceLane(now, k);
            OutputState &output = outputs_[laneIdx(port, lane)];
            if (!output.busy())
                continue;
            const auto in = static_cast<std::size_t>(output.boundInput);
            Branch &branch = inputs_[in].branches[static_cast<std::size_t>(
                output.boundBranch)];
            const PacketRecord &rec = fifos_[in].packets.front();
            MDW_ASSERT(rec.pkt->id == branch.pkt->id,
                       "output %zu bound to a non-head packet", port);

            if (branch.sent >= rec.arrived)
                continue; // flit not yet in the buffer
            if (!sendFlit(port, lane, branch.pkt, branch.sent, now))
                continue;
            ++branch.sent;
            if (branch.done()) {
                output.boundInput = -1;
                output.boundBranch = -1;
            }
        }
    }
}

void
InputBufferSwitch::arbitrateSync()
{
    // All-or-nothing acquisition (no hold-and-wait): an input gets
    // every output (port, lane) slot its head packet needs in one
    // shot, or none. Inputs are served in round-robin order for
    // fairness.
    requesters_.clear();
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        const InputState &input = inputs_[i];
        if (!input.decoded)
            continue;
        bool wants = input.upPending;
        for (const Branch &branch : input.branches)
            wants = wants || !branch.granted;
        if (wants)
            requesters_.push_back(static_cast<int>(i));
    }

    // Try every waiting input once, rotating priority.
    for (;;) {
        const int i = syncArb_.grantFrom(requesters_);
        if (i < 0)
            return;
        *std::find(requesters_.begin(), requesters_.end(), i) =
            requesters_.back();
        requesters_.pop_back();
        InputState &input = inputs_[static_cast<std::size_t>(i)];
        const int lane = input.outLane;

        // Collect the full port set: ungranted branches plus, if
        // unresolved, one free up candidate — all on the worm's lane.
        needed_.clear();
        for (const Branch &branch : input.branches) {
            if (!branch.granted)
                needed_.push_back(branch.port);
        }
        PortId up_choice = kInvalidPort;
        if (input.upPending) {
            for (PortId cand : input.upCandidates) {
                if (!outputs_[laneIdx(static_cast<std::size_t>(cand),
                                      lane)]
                         .busy()) {
                    up_choice = cand;
                    break;
                }
            }
            if (up_choice == kInvalidPort)
                continue; // no free up port: acquire nothing
            needed_.push_back(up_choice);
        }

        bool all_free = true;
        for (PortId port : needed_) {
            if (outputs_[laneIdx(static_cast<std::size_t>(port), lane)]
                    .busy()) {
                all_free = false;
                break;
            }
        }
        if (!all_free || needed_.empty())
            continue;

        // Commit: bind every port.
        if (up_choice != kInvalidPort) {
            const PacketPtr &pkt =
                fifos_[static_cast<std::size_t>(i)].packets.front().pkt;
            input.branches.push_back(Branch{
                up_choice, pruneBranch(pkt, input.upDests), 0, false});
            input.upPending = false;
        }
        for (std::size_t b = 0; b < input.branches.size(); ++b) {
            Branch &branch = input.branches[b];
            if (branch.granted)
                continue;
            branch.granted = true;
            OutputState &output = outputs_[laneIdx(
                static_cast<std::size_t>(branch.port), lane)];
            output.boundInput = i;
            output.boundBranch = static_cast<int>(b);
        }
    }
}

void
InputBufferSwitch::transmitSync(Cycle now)
{
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        if (!fullyGranted(input))
            continue;
        const PacketRecord &rec = fifos_[i].packets.front();
        const int lane = input.outLane;
        const int sent = input.branches.front().sent;
        if (sent >= rec.arrived)
            continue;
        if (sent >= rec.pkt->totalFlits())
            continue;

        // Lock-step: the flit moves only if EVERY branch can take it
        // this cycle (the synchronous-replication feedback).
        bool all_can = true;
        for (const Branch &branch : input.branches) {
            MDW_ASSERT(branch.sent == sent,
                       "synchronous branches diverged (%d vs %d)",
                       branch.sent, sent);
            const auto p = static_cast<std::size_t>(branch.port);
            OutPort &port = outs_[p];
            if (port.failed)
                continue; // tombstone sink always accepts
            if (credits(p, lane) < 1 || port.out->busy(now) ||
                portThrottled(port, now) ||
                (sent == 0 && !canStartPacket(p, lane, *branch.pkt))) {
                all_can = false;
                break;
            }
        }
        if (!all_can) {
            if (sent == 0) {
                stats_.reservationStallCycles.inc();
                traceWorm(WormEvent::ReserveStall, now, *rec.pkt);
            }
            continue;
        }

        bool done = false;
        for (Branch &branch : input.branches) {
            OutPort &port =
                outs_[static_cast<std::size_t>(branch.port)];
            if (port.failed) {
                ++branch.sent;
                noteTombstone();
                done = branch.done();
                continue;
            }
            port.out->send(Flit{branch.pkt, branch.sent, lane}, now);
            ++branch.sent;
            --credits(static_cast<std::size_t>(branch.port), lane);
            notePortSend(static_cast<std::size_t>(branch.port), lane);
            done = branch.done();
        }
        if (sim_)
            sim_->noteProgress();
        if (done) {
            traceWorm(WormEvent::TailDrain, now, *rec.pkt);
            for (const Branch &branch : input.branches) {
                OutputState &output = outputs_[laneIdx(
                    static_cast<std::size_t>(branch.port), lane)];
                output.boundInput = -1;
                output.boundBranch = -1;
            }
        }
    }
}

void
InputBufferSwitch::release(Cycle now)
{
    for (std::size_t i = held_.next(0); i != SlotMask::kEnd;
         i = held_.next(i + 1)) {
        InputState &input = inputs_[i];
        InputFifo &fifo = fifos_[i];
        if (!input.decoded)
            continue;
        const PacketRecord &rec = fifo.packets.front();
        const int total = rec.pkt->totalFlits();

        int min_sent = total;
        if (input.upPending)
            min_sent = 0;
        else if (input.branches.empty())
            min_sent = rec.arrived; // tombstoned head: drain on arrival
        for (const Branch &branch : input.branches)
            min_sent = std::min(min_sent, branch.sent);

        if (min_sent > input.released) {
            const int freed = min_sent - input.released;
            input.released = min_sent;
            fifo.freeSlots += freed;
            const std::size_t port =
                i / static_cast<std::size_t>(lanes());
            const int lane = static_cast<int>(
                i % static_cast<std::size_t>(lanes()));
            if (ins_[port].creditOut)
                ins_[port].creditOut->send(freed, now, lane);
        }

        if (input.released == total) {
            MDW_ASSERT(rec.arrived == total,
                       "released more flits than arrived");
            popInputPacket(i);
            input.decoded = false;
            input.branches.clear();
            input.upPending = false;
            input.released = 0;
        }
    }
}

void
InputBufferSwitch::attachTelemetry(Telemetry &telemetry)
{
    SwitchBase::attachTelemetry(telemetry);
    MetricsRegistry &reg = telemetry.registry();
    reg.registerIntGauge(
        metricScope_, "arb.output_grants", &outputArb_,
        [](const void *arbs) {
            std::uint64_t total = 0;
            for (const RoundRobinArbiter &arb :
                 *static_cast<const std::vector<RoundRobinArbiter> *>(
                     arbs)) {
                total += arb.totalGrants();
            }
            return total;
        });
    reg.registerIntGauge(metricScope_, "arb.sync_grants", &syncArb_,
                         readGrants);
}

bool
InputBufferSwitch::quiescent(std::string *why) const
{
    if (!SwitchBase::quiescent(why))
        return false;
    const auto complain = [&](const std::string &what) {
        if (why)
            *why += name() + ": " + what + "; ";
        return false;
    };
    for (std::size_t o = 0; o < outputs_.size(); ++o) {
        if (outputs_[o].busy())
            return complain("output " + std::to_string(o) +
                            " still bound to a branch");
    }
    return true;
}

} // namespace mdw
