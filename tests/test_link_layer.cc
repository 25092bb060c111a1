/**
 * @file
 * Unit tests for the link-level reliability layer: flit CRC
 * round-trips, NAK/replay timing, replay-buffer stalls and
 * wraparound, bidirectional corruption, flap ride-through, and the
 * retry-exhaustion escalation boundary.
 */

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "message/flit.hh"
#include "message/link_layer.hh"
#include "message/packet.hh"
#include "sim/channel.hh"

namespace mdw {
namespace {

PacketPtr
makePacket(PacketFactory &factory, int payload = 4)
{
    PacketDesc proto;
    proto.src = 0;
    proto.dests = DestSet::of(16, {1});
    proto.kind = PacketKind::Unicast;
    proto.headerFlits = 1;
    proto.payloadFlits = payload;
    return factory.make(std::move(proto));
}

LinkLayerParams
params(int retryLimit = 16, int replayBuffer = 16)
{
    LinkLayerParams p;
    p.ber = 0.0; // tests drive errors through the force* seams
    p.residual = 0.0;
    p.retryLimit = retryLimit;
    p.replayBufferFlits = replayBuffer;
    return p;
}

TEST(FlitCrc, SealThenVerify)
{
    PacketFactory factory;
    Flit flit(makePacket(factory), 2);
    flit.seal(7);
    EXPECT_TRUE(flit.crcOk());
    EXPECT_EQ(flit.linkSeq, 7u);
}

TEST(FlitCrc, CorruptionRoundTrip)
{
    PacketFactory factory;
    Flit flit(makePacket(factory), 0);
    flit.seal(0);
    ASSERT_TRUE(flit.crcOk());
    flit.corrupt(0x40);
    EXPECT_FALSE(flit.crcOk());
    // The model's error process is an XOR mask: undoing the exact
    // corruption restores a valid codeword.
    flit.corrupt(0x40);
    EXPECT_TRUE(flit.crcOk());
}

TEST(FlitCrc, EveryNonzeroMaskIsDetected)
{
    PacketFactory factory;
    Flit flit(makePacket(factory), 1);
    flit.seal(3);
    for (unsigned mask = 1; mask <= 0xffffu; ++mask) {
        Flit wire = flit;
        wire.corrupt(static_cast<std::uint16_t>(mask));
        ASSERT_FALSE(wire.crcOk()) << "mask " << mask << " undetected";
    }
}

TEST(FlitCrc, DistinguishesSequenceNumbers)
{
    PacketFactory factory;
    Flit flit(makePacket(factory), 0);
    flit.seal(0);
    const std::uint16_t crc0 = flit.crc;
    flit.seal(1);
    EXPECT_NE(flit.crc, crc0);
    // A stale seal (replayed flit carrying an old sequence number)
    // fails verification once linkSeq is bumped without resealing.
    flit.linkSeq = 9;
    EXPECT_FALSE(flit.crcOk());
}

TEST(LinkLayer, CleanPassThrough)
{
    PacketFactory factory;
    Channel<Flit> ch(2);
    LinkLayer layer("ab", 0, 4, 2, params(), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    ch.send(Flit(makePacket(factory), 0), 10);
    EXPECT_EQ(ch.peek(11), nullptr);
    ASSERT_NE(ch.peek(12), nullptr);
    const Flit got = ch.receive(12);
    EXPECT_TRUE(got.crcOk());
    EXPECT_EQ(got.linkSeq, 0u);
    EXPECT_EQ(layer.txSeq(), 1u);
    EXPECT_EQ(layer.rxSeq(), 1u);
    EXPECT_EQ(layer.stats().corrupted.value(), 0u);
    EXPECT_EQ(layer.stats().replays.value(), 0u);
}

TEST(LinkLayer, NakReplayDelaysOneRoundTrip)
{
    PacketFactory factory;
    const Cycle delay = 2;
    Channel<Flit> ch(delay);
    LinkLayer layer("ab", 0, 4, delay, params(), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    layer.forceCorrupt(1);
    ch.send(Flit(makePacket(factory), 0), 10);
    // Corrupted traversal departs at 10, the NAK reaches the sender
    // at 10 + 2*delay, the replay departs the next cycle and lands
    // one wire delay later.
    const Cycle arrival = 10 + 2 * delay + 1 + delay;
    EXPECT_EQ(ch.nextArrival(), arrival);
    EXPECT_EQ(layer.stats().corrupted.value(), 1u);
    EXPECT_EQ(layer.stats().naks.value(), 1u);
    EXPECT_EQ(layer.stats().replays.value(), 1u);
    EXPECT_EQ(layer.lastNak(), 10 + 2 * delay);

    const Flit got = ch.receive(arrival);
    EXPECT_TRUE(got.crcOk());
    EXPECT_EQ(got.linkSeq, 0u);
    EXPECT_FALSE(layer.dead());
}

TEST(LinkLayer, ResidualErrorTaintsBranch)
{
    PacketFactory factory;
    factory.enableIntegrityTracking();
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    PacketPtr pkt = makePacket(factory);
    ASSERT_NE(pkt->taint, nullptr);
    layer.forceCorrupt(1);
    layer.forceResidual(1);
    ch.send(Flit(pkt, 0), 5);
    // Accepted on the first traversal: no NAK, no replay.
    EXPECT_EQ(ch.nextArrival(), 6u);
    EXPECT_EQ(layer.stats().residualErrors.value(), 1u);
    EXPECT_EQ(layer.stats().naks.value(), 0u);
    EXPECT_TRUE(pkt->taint->tainted());

    // The taint is visible through descendants of a replication
    // branch but not through siblings split off beforehand.
    PacketPtr clean = makePacket(factory);
    EXPECT_FALSE(clean->taint->tainted());
}

TEST(LinkLayer, ResidualWithoutTaintPoisons)
{
    PacketFactory factory; // integrity tracking off: no taint nodes
    std::unordered_set<PacketId> poisoned;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(), 99);
    layer.setPoisonRegistry(&poisoned);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    PacketPtr pkt = makePacket(factory);
    ASSERT_EQ(pkt->taint, nullptr);
    layer.forceCorrupt(1);
    layer.forceResidual(1);
    ch.send(Flit(pkt, 0), 5);
    EXPECT_EQ(poisoned.count(pkt->id), 1u);
}

TEST(LinkLayer, FullReplayBufferStallsDeparture)
{
    PacketFactory factory;
    const Cycle delay = 4;
    Channel<Flit> ch(delay);
    LinkLayer layer("ab", 0, 4, delay, params(16, 2), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);
    PacketPtr pkt = makePacket(factory);

    ch.send(Flit(pkt, 0), 0); // departs 0, ack returns at 8
    ch.send(Flit(pkt, 1), 1); // departs 1, ack returns at 9
    EXPECT_EQ(layer.replayOccupancy(), 2u);
    // Window full: the third flit must wait for flit 0's ack.
    ch.send(Flit(pkt, 2), 2);
    EXPECT_EQ(ch.nextArrival(), delay + 0); // flit 0 unaffected
    EXPECT_EQ(layer.stats().replayStallCycles.value(), 6u);
    (void)ch.receive(delay + 0);
    (void)ch.receive(delay + 1);
    // Flit 2 departed at 8 (the ack's return), landing at 12.
    const Flit got = ch.receive(8 + delay);
    EXPECT_EQ(got.linkSeq, 2u);
    EXPECT_EQ(layer.rxSeq(), 3u);
}

TEST(LinkLayer, ReplayBufferWrapsAroundUnderStreaming)
{
    PacketFactory factory;
    const Cycle delay = 3;
    Channel<Flit> ch(delay);
    LinkLayer layer("ab", 0, 4, delay, params(16, 2), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);
    PacketPtr pkt = makePacket(factory, 16);

    // Stream three windows' worth of flits through the two-entry
    // replay buffer, draining arrivals as they land: the window must
    // recycle (occupancy bounded) and deliver strictly in sequence.
    Cycle now = 0;
    std::uint32_t delivered = 0;
    for (int i = 0; i < 8; ++i) {
        ch.send(Flit(pkt, i), now);
        ASSERT_LE(layer.replayOccupancy(), 2u);
        now = std::max(now + 1, ch.nextArrival());
        while (ch.peek(now) != nullptr) {
            const Flit got = ch.receive(now);
            ASSERT_EQ(got.linkSeq, delivered);
            ASSERT_TRUE(got.crcOk());
            ++delivered;
        }
    }
    EXPECT_EQ(delivered, 8u);
    EXPECT_EQ(layer.txSeq(), 8u);
    EXPECT_EQ(layer.rxSeq(), 8u);
    EXPECT_FALSE(layer.dead());
}

TEST(LinkLayer, SimultaneousBidirectionalCorruption)
{
    PacketFactory factory;
    const Cycle delay = 2;
    Channel<Flit> ab(delay);
    Channel<Flit> ba(delay);
    LinkLayer fwd("ab", 0, 4, delay, params(), 7);
    LinkLayer rev("ba", 1, 2, delay, params(), 8);
    Channel<Flit>::Side abSide;
    Channel<Flit>::Side baSide;
    ab.setSide(&abSide);
    ba.setSide(&baSide);
    ab.setHook(&fwd);
    ba.setHook(&rev);

    // Both directions corrupt the traversal departing at the same
    // cycle; each NAK/replay exchange resolves independently on its
    // own (modeled) control channel.
    fwd.forceCorrupt(1);
    rev.forceCorrupt(1);
    ab.send(Flit(makePacket(factory), 0), 20);
    ba.send(Flit(makePacket(factory), 0), 20);

    const Cycle arrival = 20 + 2 * delay + 1 + delay;
    EXPECT_EQ(ab.nextArrival(), arrival);
    EXPECT_EQ(ba.nextArrival(), arrival);
    EXPECT_EQ(fwd.stats().naks.value(), 1u);
    EXPECT_EQ(rev.stats().naks.value(), 1u);
    EXPECT_TRUE(ab.receive(arrival).crcOk());
    EXPECT_TRUE(ba.receive(arrival).crcOk());
    EXPECT_FALSE(fwd.dead());
    EXPECT_FALSE(rev.dead());
}

TEST(LinkLayer, EscalationBoundaryNMinusOneSucceeds)
{
    PacketFactory factory;
    const int limit = 4;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(limit), 99);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    // limit-1 corrupted traversals leave one attempt in the budget:
    // the flit is delivered and the link stays up.
    layer.forceCorrupt(limit - 1);
    ch.send(Flit(makePacket(factory), 0), 0);
    EXPECT_FALSE(layer.dead());
    EXPECT_EQ(layer.stats().replays.value(),
              static_cast<std::uint64_t>(limit - 1));
    EXPECT_EQ(ch.inFlight(), 1u);
    EXPECT_TRUE(ch.receive(ch.nextArrival()).crcOk());
}

TEST(LinkLayer, EscalationBoundaryNExhaustsAndFailsStop)
{
    PacketFactory factory;
    const int limit = 4;
    std::unordered_set<PacketId> poisoned;
    std::vector<Cycle> escalations;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(limit), 99);
    layer.setPoisonRegistry(&poisoned);
    layer.setEscalation(
        [&escalations](Cycle when) { escalations.push_back(when); });
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    PacketPtr pkt = makePacket(factory);
    layer.forceCorrupt(limit);
    ch.send(Flit(pkt, 0), 0);
    EXPECT_TRUE(layer.dead());
    ASSERT_EQ(escalations.size(), 1u);
    EXPECT_EQ(ch.inFlight(), 0u); // dropped, nothing delivered
    EXPECT_EQ(layer.stats().dropped.value(), 1u);
    EXPECT_EQ(poisoned.count(pkt->id), 1u);

    // Later sends on the escalated direction drop without a second
    // escalation report.
    PacketPtr other = makePacket(factory);
    ch.send(Flit(other, 0), 50);
    EXPECT_EQ(layer.stats().dropped.value(), 2u);
    EXPECT_EQ(poisoned.count(other->id), 1u);
    EXPECT_EQ(escalations.size(), 1u);
}

TEST(LinkLayer, FlapRideThrough)
{
    PacketFactory factory;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(), 99);
    FlapWindow flap;
    flap.sw = 0;
    flap.port = 4;
    flap.start = 5;
    flap.end = 10;
    layer.setFlaps({flap});
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    // Departures at 5 and 9 (after one retry timeout of 2*1+2) both
    // fall inside [5, 10); the second retry at 13 goes through.
    ch.send(Flit(makePacket(factory), 0), 5);
    EXPECT_EQ(layer.stats().timeouts.value(), 2u);
    EXPECT_EQ(layer.stats().replays.value(), 2u);
    EXPECT_EQ(ch.nextArrival(), 14u);
    EXPECT_TRUE(ch.receive(14).crcOk());
    EXPECT_FALSE(layer.dead());
}

TEST(LinkLayer, FlapLongerThanRetryBudgetEscalates)
{
    PacketFactory factory;
    std::vector<Cycle> escalations;
    std::unordered_set<PacketId> poisoned;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(2), 99);
    FlapWindow flap;
    flap.sw = 0;
    flap.port = 4;
    flap.start = 0;
    flap.end = 1000;
    layer.setFlaps({flap});
    layer.setPoisonRegistry(&poisoned);
    layer.setEscalation(
        [&escalations](Cycle when) { escalations.push_back(when); });
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    PacketPtr pkt = makePacket(factory);
    ch.send(Flit(pkt, 0), 3);
    EXPECT_TRUE(layer.dead());
    ASSERT_EQ(escalations.size(), 1u);
    EXPECT_EQ(poisoned.count(pkt->id), 1u);
    EXPECT_EQ(ch.inFlight(), 0u);
}

TEST(LinkLayer, MarkDeadDropsLaterSends)
{
    PacketFactory factory;
    std::unordered_set<PacketId> poisoned;
    Channel<Flit> ch(1);
    LinkLayer layer("ab", 0, 4, 1, params(), 99);
    layer.setPoisonRegistry(&poisoned);
    Channel<Flit>::Side side;
    ch.setSide(&side);
    ch.setHook(&layer);

    layer.markDead();
    PacketPtr pkt = makePacket(factory);
    ch.send(Flit(pkt, 0), 0);
    EXPECT_EQ(ch.inFlight(), 0u);
    EXPECT_EQ(layer.stats().dropped.value(), 1u);
    EXPECT_EQ(poisoned.count(pkt->id), 1u);
}

TEST(PacketTaint, PruneBranchIsolatesSiblings)
{
    PacketFactory factory;
    factory.enableIntegrityTracking();
    PacketDesc proto;
    proto.src = 0;
    proto.dests = DestSet::of(16, {1, 2, 3, 4});
    proto.kind = PacketKind::HwMulticast;
    proto.headerFlits = 2;
    proto.payloadFlits = 4;
    PacketPtr parent = factory.make(std::move(proto));

    PacketPtr left = pruneBranch(parent, DestSet::of(16, {1, 2}));
    PacketPtr right = pruneBranch(parent, DestSet::of(16, {3, 4}));
    ASSERT_NE(left->taint, nullptr);
    ASSERT_NE(right->taint, nullptr);

    // Corrupting one branch taints that branch and its descendants,
    // not the sibling subtree.
    left->taint->corrupted = true;
    PacketPtr leftChild = pruneBranch(left, DestSet::of(16, {1}));
    EXPECT_TRUE(left->taint->tainted());
    EXPECT_TRUE(leftChild->taint->tainted());
    EXPECT_FALSE(right->taint->tainted());
    EXPECT_FALSE(parent->taint->tainted());

    // Corruption on the common prefix (before the split) is seen by
    // every descendant.
    parent->taint->corrupted = true;
    EXPECT_TRUE(right->taint->tainted());
}

} // namespace
} // namespace mdw
