/**
 * @file
 * Property tests for random irregular (NOW) topologies with
 * up*-down* orientation, across seeds.
 */

#include <gtest/gtest.h>

#include "topology/irregular.hh"

namespace mdw {
namespace {

class IrregularSeeds : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(IrregularSeeds, StructureIsSound)
{
    IrregularParams params; // 16 switches, radix 8, 32 hosts
    IrregularTopology t(params, Rng(GetParam()));
    // finalize() already validated the graph, connectivity, and the
    // acyclicity of the down-link orientation (it would have
    // panicked otherwise).
    EXPECT_EQ(t.numHosts(), 32u);
    EXPECT_EQ(t.numSwitches(), 16u);
    EXPECT_EQ(t.levelOf(0), 0);
    EXPECT_GE(t.downLevels(), 1);
}

TEST_P(IrregularSeeds, EverySwitchCanCoverEveryHost)
{
    IrregularParams params;
    IrregularTopology t(params, Rng(GetParam()));
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchRouting &sr =
            t.routing().at(static_cast<SwitchId>(s));
        // Either everything is reachable downward, or the switch has
        // an up port to climb toward the root.
        if (sr.upPorts().empty())
            EXPECT_EQ(sr.downReachCount(), t.numHosts());
        else
            EXPECT_FALSE(sr.upPorts().empty());
    }
}

TEST_P(IrregularSeeds, UpPortsPointCloserToRoot)
{
    IrregularParams params;
    IrregularTopology t(params, Rng(GetParam()));
    for (std::size_t s = 0; s < t.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        for (PortId p = 0; p < t.graph().radix(sw); ++p) {
            const PortPeer &peer = t.graph().peer(sw, p);
            if (!peer.isSwitch())
                continue;
            const auto self_key =
                std::make_pair(t.levelOf(sw), sw);
            const auto peer_key =
                std::make_pair(t.levelOf(peer.sw), peer.sw);
            if (t.portDir(sw, p) == PortDir::Up)
                EXPECT_LT(peer_key, self_key);
            else
                EXPECT_GT(peer_key, self_key);
        }
    }
}

TEST_P(IrregularSeeds, HostPortsAreDown)
{
    IrregularParams params;
    IrregularTopology t(params, Rng(GetParam()));
    for (std::size_t h = 0; h < t.numHosts(); ++h) {
        const HostAttach &at =
            t.graph().attach(static_cast<NodeId>(h));
        EXPECT_EQ(t.portDir(at.sw, at.port), PortDir::Down);
    }
}

TEST_P(IrregularSeeds, SameSeedSameNetwork)
{
    IrregularParams params;
    IrregularTopology a(params, Rng(GetParam()));
    IrregularTopology b(params, Rng(GetParam()));
    ASSERT_EQ(a.numSwitches(), b.numSwitches());
    for (std::size_t s = 0; s < a.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        for (PortId p = 0; p < a.graph().radix(sw); ++p) {
            const PortPeer &pa = a.graph().peer(sw, p);
            const PortPeer &pb = b.graph().peer(sw, p);
            EXPECT_EQ(pa.kind, pb.kind);
            EXPECT_EQ(pa.sw, pb.sw);
            EXPECT_EQ(pa.host, pb.host);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularSeeds,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

TEST(Irregular, SingleSwitchDegenerateCase)
{
    IrregularParams params;
    params.switches = 1;
    params.radix = 8;
    params.hosts = 6;
    params.extraLinks = 0;
    IrregularTopology t(params, Rng(7));
    EXPECT_EQ(t.numSwitches(), 1u);
    EXPECT_EQ(t.downLevels(), 1);
    const SwitchRouting &sr = t.routing().at(0);
    EXPECT_EQ(sr.downReachCount(), 6u);
}

TEST(IrregularDeath, InsufficientPortsIsFatal)
{
    IrregularParams params;
    params.switches = 2;
    params.radix = 2;
    params.hosts = 8;
    params.extraLinks = 0;
    EXPECT_DEATH(IrregularTopology(params, Rng(1)), "ports");
}

TEST(Irregular, DescribeMentionsShape)
{
    IrregularParams params;
    IrregularTopology t(params, Rng(3));
    EXPECT_NE(t.describe().find("irregular NOW"), std::string::npos);
}

} // namespace
} // namespace mdw
