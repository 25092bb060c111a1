/**
 * @file
 * Unit tests for SwitchBase helpers: the whole-packet start rule and
 * the up-port selection policies.
 */

#include <gtest/gtest.h>

#include <set>

#include "switch/switch_base.hh"

namespace mdw {
namespace {

SwitchRouting
makeRouting()
{
    SwitchRouting routing(4, 8);
    routing.setDir(0, PortDir::Down);
    routing.setDir(1, PortDir::Down);
    routing.setDir(2, PortDir::Up);
    routing.setDir(3, PortDir::Up);
    const HostRange hosts01[] = {{0, 2}};
    const HostRange hosts23[] = {{2, 4}};
    routing.setDownReach(0, hosts01);
    routing.setDownReach(1, hosts23);
    routing.freeze();
    return routing;
}

class ProbeSwitch : public SwitchBase
{
  public:
    ProbeSwitch(const SwitchRouting *routing, const SwitchParams &params)
        : SwitchBase("probe", 0, routing, params, 16)
    {
    }

    void step(Cycle) override {}

    ReceivePolicy
    receivePolicy(PortId) const override
    {
        return ReceivePolicy{inputFlits_, false};
    }

    /** Output 0's receiver policy and lane-0 credit count. */
    void
    setPort0(int credits, bool mcastWholePacket)
    {
        outs_[0].mcastWholePacket = mcastWholePacket;
        this->credits(0, 0) = credits;
    }

    using SwitchBase::canStartPacket;
    using SwitchBase::chooseUpPort;
};

PacketDesc
makeDesc(PacketKind kind, PacketId id = 1)
{
    PacketDesc desc;
    desc.id = id;
    desc.src = 0;
    desc.dests = DestSet::of(8, {4, 5});
    desc.kind = kind;
    desc.headerFlits = 2;
    desc.payloadFlits = 30; // 32 total
    return desc;
}

TEST(SwitchBase, UnicastStartsWithOneCredit)
{
    const SwitchRouting routing = makeRouting();
    ProbeSwitch sw(&routing, SwitchParams{});
    sw.setPort0(1, true);
    EXPECT_TRUE(sw.canStartPacket(0, 0, makeDesc(PacketKind::Unicast)));
    EXPECT_TRUE(sw.canStartPacket(
        0, 0, makeDesc(PacketKind::SwMulticastCarrier)));
    sw.setPort0(0, true);
    EXPECT_FALSE(sw.canStartPacket(0, 0, makeDesc(PacketKind::Unicast)));
}

TEST(SwitchBase, MulticastNeedsWholePacketWhenDemanded)
{
    const SwitchRouting routing = makeRouting();
    ProbeSwitch sw(&routing, SwitchParams{});
    sw.setPort0(31, true);
    EXPECT_FALSE(
        sw.canStartPacket(0, 0, makeDesc(PacketKind::HwMulticast)));
    sw.setPort0(32, true);
    EXPECT_TRUE(
        sw.canStartPacket(0, 0, makeDesc(PacketKind::HwMulticast)));
    // Receivers that do their own admission only need one credit.
    sw.setPort0(1, false);
    EXPECT_TRUE(
        sw.canStartPacket(0, 0, makeDesc(PacketKind::HwMulticast)));
}

TEST(SwitchBase, DeterministicUpChoiceIsStable)
{
    const SwitchRouting routing = makeRouting();
    SwitchParams params;
    params.upPolicy = UpPortPolicy::Deterministic;
    ProbeSwitch sw(&routing, params);

    const RouteDecision route = routing.decode(
        DestSet::of(8, {6}), RoutingVariant::ReplicateAfterLca);
    ASSERT_TRUE(route.needsUp());

    const PacketDesc desc = makeDesc(PacketKind::Unicast, 7);
    const PortId first = sw.chooseUpPort(route, desc, 0, nullptr);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(sw.chooseUpPort(route, desc, 0, nullptr), first);
    EXPECT_TRUE(first == 2 || first == 3);
}

TEST(SwitchBase, DeterministicUpChoiceSpreadsAcrossPackets)
{
    const SwitchRouting routing = makeRouting();
    SwitchParams params;
    params.upPolicy = UpPortPolicy::Deterministic;
    ProbeSwitch sw(&routing, params);
    const RouteDecision route = routing.decode(
        DestSet::of(8, {6}), RoutingVariant::ReplicateAfterLca);

    std::set<PortId> seen;
    for (PacketId id = 1; id <= 40; ++id)
        seen.insert(sw.chooseUpPort(
            route, makeDesc(PacketKind::Unicast, id), 0, nullptr));
    EXPECT_EQ(seen.size(), 2u); // both up ports get used
}

TEST(SwitchBase, AdaptiveUpChoicePrefersFreePorts)
{
    const SwitchRouting routing = makeRouting();
    SwitchParams params;
    params.upPolicy = UpPortPolicy::Adaptive;
    ProbeSwitch sw(&routing, params);
    const RouteDecision route = routing.decode(
        DestSet::of(8, {6}), RoutingVariant::ReplicateAfterLca);
    const PacketDesc desc = makeDesc(PacketKind::Unicast, 3);

    // Only port 3 is "free".
    EXPECT_EQ(sw.chooseUpPort(route, desc, 0,
                              [](PortId p) { return p == 3; }),
              3);
    EXPECT_EQ(sw.chooseUpPort(route, desc, 0,
                              [](PortId p) { return p == 2; }),
              2);
}

TEST(SwitchBase, AdaptiveFallsBackToHashWhenNothingFree)
{
    const SwitchRouting routing = makeRouting();
    SwitchParams params;
    params.upPolicy = UpPortPolicy::Adaptive;
    ProbeSwitch sw(&routing, params);
    const RouteDecision route = routing.decode(
        DestSet::of(8, {6}), RoutingVariant::ReplicateAfterLca);
    const PacketDesc desc = makeDesc(PacketKind::Unicast, 3);

    const PortId pick =
        sw.chooseUpPort(route, desc, 0, [](PortId) { return false; });
    // Same pick as the deterministic policy would make.
    SwitchParams det;
    det.upPolicy = UpPortPolicy::Deterministic;
    ProbeSwitch dsw(&routing, det);
    EXPECT_EQ(pick, dsw.chooseUpPort(route, desc, 0, nullptr));
}

TEST(SwitchBase, ReplicationModeNames)
{
    EXPECT_STREQ(toString(ReplicationMode::Asynchronous),
                 "asynchronous");
    EXPECT_STREQ(toString(ReplicationMode::Synchronous), "synchronous");
}

} // namespace
} // namespace mdw
