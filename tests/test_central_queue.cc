/**
 * @file
 * Unit tests for the chunked, reference-counted central queue.
 */

#include <gtest/gtest.h>

#include "switch/central_queue.hh"

namespace mdw {
namespace {

PacketPtr
makePkt(int header, int payload, std::size_t ndests = 1)
{
    PacketDesc proto;
    proto.id = 1;
    proto.src = 0;
    proto.dests = DestSet(16);
    for (std::size_t i = 0; i < ndests; ++i)
        proto.dests.set(static_cast<NodeId>(i + 1));
    proto.kind =
        ndests > 1 ? PacketKind::HwMulticast : PacketKind::Unicast;
    proto.headerFlits = header;
    proto.payloadFlits = payload;
    return std::make_shared<const PacketDesc>(std::move(proto));
}

TEST(CentralQueue, ChunksFor)
{
    CentralQueue cq(CqParams{16, 8});
    EXPECT_EQ(cq.chunksFor(1), 1);
    EXPECT_EQ(cq.chunksFor(8), 1);
    EXPECT_EQ(cq.chunksFor(9), 2);
    EXPECT_EQ(cq.chunksFor(64), 8);
}

TEST(CentralQueue, ReservationChargesWholePacket)
{
    CentralQueue cq(CqParams{16, 8});
    EXPECT_TRUE(cq.canReserve(20)); // 3 chunks
    const auto id = cq.addReserved(makePkt(4, 16, 3), 3);
    EXPECT_EQ(cq.usedChunks(), 3);
    EXPECT_EQ(cq.freeChunks(), 13);
    EXPECT_TRUE(cq.alive(id));
}

TEST(CentralQueue, CanReserveRespectsCapacity)
{
    CentralQueue cq(CqParams{4, 8});
    EXPECT_TRUE(cq.canReserve(32));
    EXPECT_FALSE(cq.canReserve(33));
    (void)cq.addReserved(makePkt(4, 20, 2), 2); // 3 chunks
    EXPECT_TRUE(cq.canReserve(8));
    EXPECT_FALSE(cq.canReserve(9));
}

TEST(CentralQueue, UnreservedGrowsChunksOnWrite)
{
    CentralQueue cq(CqParams{16, 8});
    const auto id = cq.addUnreserved(makePkt(2, 18)); // 20 flits
    EXPECT_EQ(cq.usedChunks(), 0);
    cq.write(id, 5);
    EXPECT_EQ(cq.usedChunks(), 1);
    cq.write(id, 3); // exactly fills chunk 0
    EXPECT_EQ(cq.usedChunks(), 1);
    cq.write(id, 1);
    EXPECT_EQ(cq.usedChunks(), 2);
}

TEST(CentralQueue, WritableLimitedByFreeChunksForUnreserved)
{
    CentralQueue cq(CqParams{2, 8});
    const auto id = cq.addUnreserved(makePkt(2, 30)); // 32 flits
    EXPECT_EQ(cq.writable(id), 16);
    cq.write(id, 16);
    EXPECT_EQ(cq.writable(id), 0); // full
}

TEST(CentralQueue, ReadableIsChunkGranular)
{
    CentralQueue cq(CqParams{16, 8});
    const auto id = cq.addReserved(makePkt(4, 16, 1), 1); // 20 flits
    cq.write(id, 7);
    EXPECT_EQ(cq.readable(id, 0), 0); // partial chunk not visible
    cq.write(id, 1);
    EXPECT_EQ(cq.readable(id, 0), 8);
    cq.write(id, 12); // complete (20 written)
    EXPECT_EQ(cq.readable(id, 0), 20); // tail readable though partial
}

TEST(CentralQueue, SingleReaderLifecycle)
{
    CentralQueue cq(CqParams{16, 8});
    const auto id = cq.addReserved(makePkt(4, 12, 1), 1); // 16 flits
    EXPECT_EQ(cq.usedChunks(), 2);
    cq.write(id, 16);
    EXPECT_EQ(cq.read(id, 0, 8), 8);
    EXPECT_EQ(cq.usedChunks(), 1); // first chunk recycled
    EXPECT_EQ(cq.read(id, 0, 8), 8);
    EXPECT_FALSE(cq.alive(id)); // fully consumed -> erased
    EXPECT_EQ(cq.usedChunks(), 0);
}

TEST(CentralQueue, MulticastStoredOnceReadByAllBranches)
{
    CentralQueue cq(CqParams{16, 8});
    // 3 readers share ONE copy: 2 chunks charged, not 6.
    const auto id = cq.addReserved(makePkt(4, 12, 3), 3);
    EXPECT_EQ(cq.usedChunks(), 2);
    cq.write(id, 16);

    // Fast reader drains fully; chunks must stay for the others.
    EXPECT_EQ(cq.read(id, 0, 16), 16);
    EXPECT_EQ(cq.usedChunks(), 2);
    EXPECT_TRUE(cq.alive(id));

    // Second reader takes the first chunk only.
    EXPECT_EQ(cq.read(id, 1, 8), 8);
    EXPECT_EQ(cq.usedChunks(), 2); // reader 2 still at 0

    // Slowest reader passes chunk 0 -> it is recycled.
    EXPECT_EQ(cq.read(id, 2, 8), 8);
    EXPECT_EQ(cq.usedChunks(), 1);

    // Everyone finishes.
    EXPECT_EQ(cq.read(id, 1, 8), 8);
    EXPECT_EQ(cq.read(id, 2, 8), 8);
    EXPECT_FALSE(cq.alive(id));
    EXPECT_EQ(cq.usedChunks(), 0);
}

TEST(CentralQueue, ReadBoundedByRequestAndReadable)
{
    CentralQueue cq(CqParams{16, 8});
    const auto id = cq.addReserved(makePkt(2, 14, 1), 1); // 16 flits
    cq.write(id, 8);
    EXPECT_EQ(cq.read(id, 0, 3), 3);
    EXPECT_EQ(cq.read(id, 0, 100), 5);
    EXPECT_EQ(cq.read(id, 0, 8), 0); // nothing written yet
}

TEST(CentralQueue, CutThroughWriteReadInterleave)
{
    CentralQueue cq(CqParams{4, 8});
    const auto id = cq.addReserved(makePkt(4, 28, 1), 1); // 32 flits
    EXPECT_EQ(cq.usedChunks(), 4);
    for (int round = 0; round < 4; ++round) {
        cq.write(id, 8);
        EXPECT_EQ(cq.read(id, 0, 8), 8);
    }
    EXPECT_FALSE(cq.alive(id));
    EXPECT_EQ(cq.usedChunks(), 0);
}

TEST(CentralQueue, EntryCountTracksResidents)
{
    CentralQueue cq(CqParams{16, 8});
    const auto a = cq.addUnreserved(makePkt(2, 6));
    const auto b = cq.addUnreserved(makePkt(2, 6));
    EXPECT_EQ(cq.entryCount(), 2u);
    cq.write(a, 8);
    cq.write(b, 8);
    (void)cq.read(a, 0, 8);
    EXPECT_EQ(cq.entryCount(), 1u);
    (void)cq.read(b, 0, 8);
    EXPECT_EQ(cq.entryCount(), 0u);
}

TEST(CentralQueue, EscapeChunkLetsCurrentStreamTrickle)
{
    // 4 chunks, 2 in the escape reserve: the shared pool holds 2.
    CentralQueue cq(CqParams{4, 8, 2});
    EXPECT_EQ(cq.sharedCapacity(), 2);

    const auto hog = cq.addUnreserved(makePkt(2, 14)); // 16 flits
    cq.write(hog, 16); // consumes the whole shared pool
    EXPECT_EQ(cq.freeChunks(), 0);

    const auto cur = cq.addUnreserved(makePkt(2, 22)); // 24 flits
    EXPECT_EQ(cq.writable(cur), 0); // shared pool exhausted

    // Once it becomes an output's current stream, it may take ONE
    // escape chunk at a time.
    cq.grantEscape(cur);
    EXPECT_EQ(cq.writable(cur), 8);
    cq.write(cur, 8);
    EXPECT_EQ(cq.writable(cur), 0); // escape chunk outstanding

    // Reading recycles the escape chunk, enabling the next write.
    EXPECT_EQ(cq.read(cur, 0, 8), 8);
    EXPECT_EQ(cq.writable(cur), 8);
    cq.write(cur, 8);
    EXPECT_EQ(cq.read(cur, 0, 8), 8);
    cq.write(cur, 8);
    EXPECT_EQ(cq.read(cur, 0, 8), 8);
    EXPECT_FALSE(cq.alive(cur)); // trickled through completely
    EXPECT_EQ(cq.usedChunks(), 2); // only the hog remains
}

TEST(CentralQueue, EscapeReserveBoundsOutstandingEscapes)
{
    CentralQueue cq(CqParams{3, 8, 1});
    const auto hog = cq.addUnreserved(makePkt(2, 14));
    cq.write(hog, 16); // shared pool (2 chunks) gone

    const auto a = cq.addUnreserved(makePkt(2, 14));
    const auto b = cq.addUnreserved(makePkt(2, 14));
    cq.grantEscape(a);
    cq.grantEscape(b);
    cq.write(a, 8); // takes the single escape chunk
    EXPECT_EQ(cq.writable(b), 0); // escape pool exhausted too
    EXPECT_EQ(cq.read(a, 0, 8), 8);
    EXPECT_EQ(cq.writable(b), 8); // recycled escape chunk available
}

TEST(CentralQueue, RetiredSlotIsReusedFresh)
{
    // 16 chunks, 2 in the escape reserve: the shared pool holds 14.
    CentralQueue cq(CqParams{16, 8, 2});
    const auto old = cq.addUnreserved(makePkt(2, 22), 2); // 24 flits
    cq.grantEscape(old);
    cq.write(old, 24);
    EXPECT_EQ(cq.read(old, 0, 24), 24);
    EXPECT_EQ(cq.read(old, 1, 24), 24);
    EXPECT_FALSE(cq.alive(old));

    // The retired id is reissued with none of the old entry's state.
    const auto id = cq.addUnreserved(makePkt(2, 22), 2);
    EXPECT_EQ(id, old);
    EXPECT_TRUE(cq.alive(id));
    EXPECT_EQ(cq.written(id), 0);
    EXPECT_EQ(cq.entryCount(), 1u);

    // No escape rights: with the shared pool gone it cannot write
    // until it is granted them again.
    const auto hog = cq.addReserved(makePkt(2, 110, 2), 1); // 14 chunks
    EXPECT_NE(hog, id);
    EXPECT_EQ(cq.freeChunks(), 0);
    EXPECT_EQ(cq.writable(id), 0);
    cq.grantEscape(id);
    EXPECT_EQ(cq.writable(id), 8);

    // Both readers start from zero progress.
    cq.write(id, 8);
    EXPECT_EQ(cq.readable(id, 0), 8);
    EXPECT_EQ(cq.readable(id, 1), 8);
}

TEST(CentralQueue, ReservedEntriesIgnoreEscape)
{
    CentralQueue cq(CqParams{8, 8, 2});
    const auto id = cq.addReserved(makePkt(2, 14, 2), 2);
    cq.grantEscape(id); // must be a no-op
    EXPECT_EQ(cq.writable(id), 16);
    EXPECT_EQ(cq.usedChunks(), 2);
}

TEST(CentralQueue, ReservationExcludesEscapeReserve)
{
    CentralQueue cq(CqParams{6, 8, 2});
    // Shared capacity is 4 chunks = 32 flits.
    EXPECT_TRUE(cq.canReserve(32));
    EXPECT_FALSE(cq.canReserve(33));
}

TEST(CentralQueue, UpPhaseHeadroomGatesReservations)
{
    CqParams params{10, 8, 0};
    params.upPhaseHeadroom = 4;
    CentralQueue cq(params);
    // Down-phase: the whole pool. Up-phase: must leave 4 chunks.
    EXPECT_TRUE(cq.canReserve(80, false));
    EXPECT_FALSE(cq.canReserve(80, true));
    EXPECT_TRUE(cq.canReserve(48, true)); // 6 chunks + 4 headroom
    EXPECT_FALSE(cq.canReserve(49, true));
}

TEST(CentralQueueDeath, OverReservationPanics)
{
    CentralQueue cq(CqParams{2, 8});
    EXPECT_DEATH((void)cq.addReserved(makePkt(4, 28, 1), 1),
                 "reservation");
}

TEST(CentralQueueDeath, OverWritePanics)
{
    CentralQueue cq(CqParams{16, 8});
    const auto id = cq.addReserved(makePkt(2, 6, 1), 1);
    EXPECT_DEATH(cq.write(id, 9), "invalid write");
}

TEST(CentralQueueDeath, UnknownEntryPanics)
{
    CentralQueue cq(CqParams{16, 8});
    EXPECT_DEATH((void)cq.written(42), "not found");
}

} // namespace
} // namespace mdw
