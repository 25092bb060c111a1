/**
 * @file
 * Unit tests for packet descriptors, branch pruning, and flits.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "message/flit.hh"
#include "message/packet.hh"

namespace mdw {
namespace {

PacketPtr
makePacket(PacketFactory &factory, std::initializer_list<NodeId> dests,
           int header = 3, int payload = 8)
{
    PacketDesc proto;
    proto.src = 0;
    proto.dests = DestSet::of(16, dests);
    proto.kind = dests.size() > 1 ? PacketKind::HwMulticast
                                  : PacketKind::Unicast;
    proto.headerFlits = header;
    proto.payloadFlits = payload;
    return factory.make(std::move(proto));
}

TEST(PacketFactory, AssignsUniqueIds)
{
    PacketFactory factory;
    auto a = makePacket(factory, {1});
    auto b = makePacket(factory, {2});
    EXPECT_NE(a->id, b->id);
    EXPECT_NE(a->msg, b->msg);
    EXPECT_EQ(factory.packetsCreated(), 2u);
}

TEST(PacketFactory, KeepsExplicitMsgId)
{
    PacketFactory factory;
    const MsgId msg = factory.newMsgId();
    PacketDesc proto;
    proto.msg = msg;
    proto.src = 0;
    proto.dests = DestSet::of(16, {1});
    proto.headerFlits = 2;
    proto.payloadFlits = 4;
    auto pkt = factory.make(std::move(proto));
    EXPECT_EQ(pkt->msg, msg);
}

TEST(PacketFactory, CrossThreadFreeIsSafe)
{
    // Allocate packets and pruned branches on worker threads, free
    // them on the main thread: the shard workers and the serial phase
    // hand PacketDescs (and their integrity chains) across threads
    // like this every cycle.
    std::vector<std::vector<PacketPtr>> per(4);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < per.size(); ++t) {
        workers.emplace_back([&per, t] {
            PacketFactory factory;
            factory.enableIntegrityTracking();
            for (int i = 0; i < 300; ++i) {
                PacketPtr pkt = makePacket(
                    factory, {1, 2}, 3, static_cast<int>(t) * 1000 + i);
                per[t].push_back(pruneBranch(pkt, DestSet::of(16, {2})));
                per[t].push_back(std::move(pkt));
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();
    for (std::size_t t = 0; t < per.size(); ++t) {
        for (std::size_t i = 0; i < 300; ++i) {
            const PacketPtr &branch = per[t][2 * i];
            const PacketPtr &pkt = per[t][2 * i + 1];
            EXPECT_EQ(pkt->payloadFlits,
                      static_cast<int>(t * 1000 + i));
            EXPECT_EQ(branch->id, pkt->id);
            ASSERT_NE(branch->taint, nullptr);
            EXPECT_EQ(branch->taint->parent, pkt->taint);
        }
    }
    per.clear(); // the main thread frees every worker allocation
}

TEST(Packet, TotalFlits)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1, 2}, 3, 8);
    EXPECT_EQ(pkt->totalFlits(), 11);
}

TEST(PruneBranch, SubsetCreatesNewDescriptor)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1, 2, 3});
    auto branch = pruneBranch(pkt, DestSet::of(16, {2}));
    EXPECT_NE(branch.get(), pkt.get());
    EXPECT_EQ(branch->id, pkt->id);
    EXPECT_EQ(branch->msg, pkt->msg);
    EXPECT_EQ(branch->dests.count(), 1u);
    EXPECT_TRUE(branch->dests.test(2));
    // Original untouched.
    EXPECT_EQ(pkt->dests.count(), 3u);
}

TEST(PruneBranch, IdenticalSetSharesDescriptor)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1, 2});
    auto branch = pruneBranch(pkt, pkt->dests);
    EXPECT_EQ(branch.get(), pkt.get());
}

TEST(PruneBranchDeath, SupersetPanics)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1});
    EXPECT_DEATH((void)pruneBranch(pkt, DestSet::of(16, {1, 2})),
                 "subset");
}

TEST(PruneBranchDeath, EmptyPanics)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1});
    EXPECT_DEATH((void)pruneBranch(pkt, DestSet(16)), "no destinations");
}

TEST(Flit, HeadTailHeaderClassification)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1}, 2, 3); // 5 flits
    EXPECT_TRUE(Flit(pkt, 0).isHead());
    EXPECT_TRUE(Flit(pkt, 0).isHeader());
    EXPECT_TRUE(Flit(pkt, 1).isHeader());
    EXPECT_FALSE(Flit(pkt, 2).isHeader());
    EXPECT_FALSE(Flit(pkt, 2).isTail());
    EXPECT_TRUE(Flit(pkt, 4).isTail());
    EXPECT_FALSE(Flit(pkt, 4).isHead());
}

TEST(Packet, ToStringMentionsKind)
{
    PacketFactory factory;
    auto pkt = makePacket(factory, {1, 2});
    EXPECT_NE(pkt->toString().find("hw-multicast"), std::string::npos);
    EXPECT_STREQ(toString(PacketKind::Unicast), "unicast");
    EXPECT_STREQ(toString(PacketKind::SwMulticastCarrier),
                 "sw-multicast-carrier");
}

} // namespace
} // namespace mdw
