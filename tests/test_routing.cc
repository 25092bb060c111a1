/**
 * @file
 * Tests for reachability-based decode and LCA routing, including a
 * full routing-walk property: simulate the branch tree hop by hop and
 * check that every destination is delivered exactly once with no
 * up-turn after going down. DecodeOracle checks the interval decode
 * against a bit-string reference built straight from the PortGraph.
 */

#include <gtest/gtest.h>

#include <deque>

#include "sim/rng.hh"
#include "topology/fat_tree.hh"
#include "topology/graph.hh"
#include "topology/irregular.hh"
#include "topology/uni_min.hh"

namespace mdw {
namespace {

/**
 * Walk a worm through the network following decode() decisions,
 * delivering at host ports. Fails the test if a branch revisits the
 * up phase after descending or exceeds a hop budget.
 */
void
walkWorm(const Topology &topo, NodeId src, const DestSet &dests,
         RoutingVariant variant, DestSet &delivered, int &maxHops)
{
    struct Leg
    {
        SwitchId sw;
        DestSet dests;
        bool goingDown;
        int hops;
    };

    const HostAttach &at = topo.graph().attach(src);
    std::deque<Leg> legs;
    legs.push_back(Leg{at.sw, dests, false, 1});
    const int hop_budget = static_cast<int>(topo.numSwitches()) + 4;

    while (!legs.empty()) {
        Leg leg = legs.front();
        legs.pop_front();
        ASSERT_LE(leg.hops, hop_budget) << "routing did not converge";
        maxHops = std::max(maxHops, leg.hops);

        const SwitchRouting &sr = topo.routing().at(leg.sw);
        const RouteDecision route = sr.decode(leg.dests, variant);

        // Once a branch starts descending it must never need an up
        // port again (the pruned set is always down-reachable).
        if (leg.goingDown) {
            ASSERT_FALSE(route.needsUp());
        }

        DestSet branched(leg.dests.size());
        for (const auto &[port, sub] : route.downBranches) {
            ASSERT_FALSE(sub.empty());
            ASSERT_FALSE(branched.intersects(sub))
                << "destination covered by two branches";
            branched |= sub;
            const PortPeer &peer = topo.graph().peer(leg.sw, port);
            if (peer.isHost()) {
                ASSERT_EQ(sub.count(), 1u);
                ASSERT_TRUE(sub.test(peer.host));
                ASSERT_FALSE(delivered.test(peer.host))
                    << "duplicate delivery";
                delivered.set(peer.host);
            } else {
                legs.push_back(
                    Leg{peer.sw, sub, true, leg.hops + 1});
            }
        }
        if (route.needsUp()) {
            ASSERT_FALSE(route.upCandidates.empty());
            // Take the first candidate (all are equivalent for
            // reachability).
            const PortId up = route.upCandidates.front();
            const PortPeer &peer = topo.graph().peer(leg.sw, up);
            ASSERT_TRUE(peer.isSwitch());
            legs.push_back(
                Leg{peer.sw, route.upDests, false, leg.hops + 1});
        }
    }
}

using Dirs = std::vector<std::vector<PortDir>>;

PortDir
dirOf(const Dirs &dirs, SwitchId sw, PortId port)
{
    return dirs[static_cast<std::size_t>(sw)][static_cast<std::size_t>(port)];
}

/**
 * Brute-force down-reach: the hosts found by a BFS that leaves switch
 * @p sw through port @p port and then follows down ports only.
 */
DestSet
bfsDownReach(const PortGraph &graph, const Dirs &dirs, SwitchId sw,
             PortId port)
{
    DestSet reach(graph.numHosts());
    std::vector<char> seen(graph.numSwitches(), 0);
    std::deque<std::pair<SwitchId, PortId>> todo{{sw, port}};
    while (!todo.empty()) {
        const auto [s, p] = todo.front();
        todo.pop_front();
        const PortPeer &peer = graph.peer(s, p);
        if (peer.isHost()) {
            reach.set(peer.host);
            continue;
        }
        if (!peer.isSwitch() || seen[static_cast<std::size_t>(peer.sw)])
            continue;
        seen[static_cast<std::size_t>(peer.sw)] = 1;
        for (PortId q = 0; q < graph.radix(peer.sw); ++q) {
            if (dirOf(dirs, peer.sw, q) == PortDir::Down)
                todo.emplace_back(peer.sw, q);
        }
    }
    return reach;
}

/**
 * Brute-force up-reach: the down-reach of every switch in the
 * up-closure of the switch behind up port @p port.
 */
DestSet
bfsUpReach(const PortGraph &graph, const Dirs &dirs, SwitchId sw,
           PortId port)
{
    DestSet reach(graph.numHosts());
    std::vector<char> seen(graph.numSwitches(), 0);
    std::deque<SwitchId> todo{graph.peer(sw, port).sw};
    seen[static_cast<std::size_t>(todo.front())] = 1;
    while (!todo.empty()) {
        const SwitchId s = todo.front();
        todo.pop_front();
        for (PortId q = 0; q < graph.radix(s); ++q) {
            const PortDir dir = dirOf(dirs, s, q);
            if (dir == PortDir::Down)
                reach |= bfsDownReach(graph, dirs, s, q);
            const PortPeer &peer = graph.peer(s, q);
            if (dir == PortDir::Up && peer.isSwitch() &&
                !seen[static_cast<std::size_t>(peer.sw)]) {
                seen[static_cast<std::size_t>(peer.sw)] = 1;
                todo.push_back(peer.sw);
            }
        }
    }
    return reach;
}

/** One switch's routing as N-bit masks, the paper's decode form. */
struct MaskTable
{
    std::vector<PortId> downPorts;
    std::vector<DestSet> downReach;
    std::vector<PortId> upPorts;
    std::vector<DestSet> upReach;
    DestSet allDown;

    MaskTable(const PortGraph &graph, const Dirs &dirs, SwitchId sw)
        : allDown(graph.numHosts())
    {
        for (PortId p = 0; p < graph.radix(sw); ++p) {
            const PortDir dir = dirOf(dirs, sw, p);
            if (dir == PortDir::Down) {
                downPorts.push_back(p);
                downReach.push_back(bfsDownReach(graph, dirs, sw, p));
                allDown |= downReach.back();
            } else if (dir == PortDir::Up) {
                upPorts.push_back(p);
                upReach.push_back(bfsUpReach(graph, dirs, sw, p));
            }
        }
    }
};

/** Decode by per-port AND and subtract, as the bit-string hardware. */
void
expectMaskDecode(const MaskTable &table, const SwitchRouting &sr,
                 const DestSet &dests, RoutingVariant variant,
                 bool tolerant)
{
    std::vector<std::pair<PortId, DestSet>> down;
    DestSet remaining = dests;
    for (std::size_t i = 0; i < table.downPorts.size(); ++i) {
        DestSet sub = remaining & table.downReach[i];
        if (sub.empty())
            continue;
        remaining -= sub;
        down.emplace_back(table.downPorts[i], std::move(sub));
    }
    DestSet up_dests(dests.size());
    DestSet unroutable(dests.size());
    std::vector<PortId> cands;
    if (!remaining.empty()) {
        if (tolerant) {
            DestSet all_up(dests.size());
            for (const DestSet &r : table.upReach)
                all_up |= r;
            unroutable = remaining - all_up;
            remaining -= unroutable;
        }
        if (!remaining.empty()) {
            if (variant == RoutingVariant::ReplicateAfterLca) {
                down.clear();
                up_dests = dests - unroutable;
            } else {
                up_dests = remaining;
            }
            cands = table.upPorts;
            if (tolerant) {
                std::vector<PortId> full, best;
                std::size_t best_count = 0;
                for (std::size_t i = 0; i < table.upPorts.size(); ++i) {
                    if (up_dests.subsetOf(table.upReach[i])) {
                        full.push_back(table.upPorts[i]);
                        continue;
                    }
                    const std::size_t n =
                        (up_dests & table.upReach[i]).count();
                    if (n > best_count) {
                        best_count = n;
                        best.clear();
                    }
                    if (n == best_count && n > 0)
                        best.push_back(table.upPorts[i]);
                }
                if (!full.empty())
                    cands = full;
                else if (!best.empty())
                    cands = best;
            }
        }
    }

    const RouteDecision route = sr.decode(dests, variant);
    ASSERT_EQ(route.downBranches.size(), down.size());
    for (std::size_t i = 0; i < down.size(); ++i) {
        EXPECT_EQ(route.downBranches[i].first, down[i].first);
        EXPECT_EQ(route.downBranches[i].second, down[i].second);
    }
    EXPECT_EQ(std::vector<PortId>(route.upCandidates.begin(),
                                  route.upCandidates.end()),
              cands);
    EXPECT_EQ(route.needsUp(), !up_dests.empty());
    if (route.needsUp()) {
        EXPECT_EQ(route.upDests, up_dests);
    }
    EXPECT_EQ(route.unroutable.empty(), unroutable.empty());
    if (!unroutable.empty()) {
        EXPECT_EQ(route.unroutable, unroutable);
    }
}

/** Random non-empty subset of @p within, of a random density. */
DestSet
randomDests(Rng &rng, const DestSet &within)
{
    const std::vector<NodeId> pool = within.toVector();
    DestSet dests(within.size());
    const std::size_t degree = 1 + rng.below(pool.size());
    for (std::size_t i = 0; i < degree; ++i)
        dests.set(pool[rng.below(pool.size())]);
    return dests;
}

/**
 * Decode @p trials random sets at every switch of @p routing and
 * compare each decision with the mask reference. Switches without an
 * up port on an intact table only get sets they can cover.
 */
void
checkAgainstMasks(const PortGraph &graph, const Dirs &dirs,
                  const NetworkRouting &routing, bool tolerant,
                  Rng &rng, int trials)
{
    DestSet everyone(graph.numHosts());
    everyone.setRange(0, static_cast<NodeId>(graph.numHosts()));
    for (std::size_t s = 0; s < graph.numSwitches(); ++s) {
        const SwitchId sw = static_cast<SwitchId>(s);
        const MaskTable table(graph, dirs, sw);
        const SwitchRouting &sr = routing.at(sw);
        EXPECT_EQ(sr.downReachCount(), table.allDown.count());
        for (std::size_t i = 0; i < table.downPorts.size(); ++i) {
            DestSet reach(graph.numHosts());
            for (const HostRange &r : sr.downReach(table.downPorts[i]))
                reach.setRange(r.lo, r.hi);
            EXPECT_EQ(reach, table.downReach[i]);
        }
        const DestSet &pool =
            tolerant || !table.upPorts.empty() ? everyone : table.allDown;
        if (pool.empty())
            continue;
        for (int t = 0; t < trials; ++t) {
            const DestSet dests = randomDests(rng, pool);
            for (RoutingVariant variant :
                 {RoutingVariant::ReplicateAfterLca,
                  RoutingVariant::ReplicateOnUpPath}) {
                expectMaskDecode(table, sr, dests, variant, tolerant);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

/** Fail random switch-switch links and switches, as resilience does. */
Dirs
injectFaults(const PortGraph &graph, Dirs dirs, Rng &rng, int links,
             int switches)
{
    auto kill = [&](SwitchId sw, PortId p) {
        dirs[static_cast<std::size_t>(sw)][static_cast<std::size_t>(p)] =
            PortDir::Unused;
        const PortPeer &peer = graph.peer(sw, p);
        if (peer.isSwitch())
            dirs[static_cast<std::size_t>(peer.sw)]
                [static_cast<std::size_t>(peer.port)] = PortDir::Unused;
    };
    for (int i = 0; i < links; ++i) {
        const auto sw = static_cast<SwitchId>(rng.below(graph.numSwitches()));
        const auto p = static_cast<PortId>(
            rng.below(static_cast<std::size_t>(graph.radix(sw))));
        if (graph.peer(sw, p).isSwitch())
            kill(sw, p);
    }
    for (int i = 0; i < switches; ++i) {
        const auto sw = static_cast<SwitchId>(rng.below(graph.numSwitches()));
        for (PortId p = 0; p < graph.radix(sw); ++p)
            kill(sw, p);
    }
    return dirs;
}

TEST(DecodeOracle, FatTreesMatchMaskDecode)
{
    Rng rng(11);
    for (const auto &[k, n] : {std::pair{2, 4}, {3, 3}, {4, 2}, {4, 3}}) {
        SCOPED_TRACE(::testing::Message() << "FatTree(" << k << "," << n
                                          << ")");
        FatTree topo(k, n);
        checkAgainstMasks(topo.graph(), topo.dirs(), topo.routing(),
                          false, rng, 6);
    }
}

TEST(DecodeOracle, UniMinMatchesMaskDecode)
{
    Rng rng(12);
    for (const auto &[k, n] : {std::pair{2, 4}, {3, 2}, {4, 3}}) {
        SCOPED_TRACE(::testing::Message() << "UniMin(" << k << "," << n
                                          << ")");
        UniMin topo(k, n);
        checkAgainstMasks(topo.graph(), topo.dirs(), topo.routing(),
                          false, rng, 6);
    }
}

/** Most intervals any down port of @p topo needs. */
std::size_t
longestDownReach(const Topology &topo)
{
    std::size_t most = 0;
    for (std::size_t s = 0; s < topo.numSwitches(); ++s) {
        const SwitchRouting &sr = topo.routing().at(static_cast<SwitchId>(s));
        for (PortId p = 0; p < sr.radix(); ++p) {
            if (sr.dir(p) == PortDir::Down)
                most = std::max(most, sr.downReach(p).size());
        }
    }
    return most;
}

TEST(DecodeOracle, IrregularMatchesMaskDecode)
{
    Rng rng(13);
    IrregularParams big;
    big.switches = 48;
    big.hosts = 192;
    big.extraLinks = 40;
    for (std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        IrregularTopology small(IrregularParams{}, Rng(seed));
        checkAgainstMasks(small.graph(), small.dirs(), small.routing(),
                          false, rng, 6);
        IrregularTopology large(big, Rng(seed));
        // Irregular trees number hosts by attachment, not by subtree,
        // so down ports need several intervals: the splitting paths a
        // fat tree never takes.
        EXPECT_GT(longestDownReach(large), 1u);
        checkAgainstMasks(large.graph(), large.dirs(), large.routing(),
                          false, rng, 2);
    }
}

TEST(DecodeOracle, TolerantTablesAfterFaultsMatchMaskDecode)
{
    Rng rng(14);
    FatTree fat(4, 3);
    IrregularTopology irregular(IrregularParams{}, Rng(5));
    for (int round = 0; round < 6; ++round) {
        SCOPED_TRACE(::testing::Message() << "round " << round);
        for (const Topology *topo :
             {static_cast<const Topology *>(&fat),
              static_cast<const Topology *>(&irregular)}) {
            const Dirs dirs =
                injectFaults(topo->graph(), topo->dirs(), rng,
                             1 + round * 2, round / 2);
            const NetworkRouting tolerant(topo->graph(), dirs, true);
            checkAgainstMasks(topo->graph(), dirs, tolerant, true, rng,
                              4);
        }
    }
}

class RoutingWalk
    : public ::testing::TestWithParam<std::tuple<RoutingVariant, int>>
{
};

TEST_P(RoutingWalk, FatTreeMulticastDeliversExactlyOnce)
{
    const auto [variant, seed] = GetParam();
    FatTree topo(4, 3);
    Rng rng(static_cast<std::uint64_t>(seed));
    for (int trial = 0; trial < 20; ++trial) {
        const NodeId src =
            static_cast<NodeId>(rng.below(topo.numHosts()));
        DestSet dests(topo.numHosts());
        const std::size_t degree = 1 + rng.below(topo.numHosts() - 1);
        while (dests.count() < degree) {
            const auto d =
                static_cast<NodeId>(rng.below(topo.numHosts()));
            if (d != src)
                dests.set(d);
        }
        DestSet delivered(topo.numHosts());
        int max_hops = 0;
        walkWorm(topo, src, dests, variant, delivered, max_hops);
        EXPECT_EQ(delivered, dests);
        // At most up to the root stage and all the way down: 2n-1
        // switches on any branch path.
        EXPECT_LE(max_hops, 2 * topo.n() - 1);
    }
}

TEST_P(RoutingWalk, IrregularMulticastDeliversExactlyOnce)
{
    const auto [variant, seed] = GetParam();
    IrregularParams params;
    IrregularTopology topo(params, Rng(static_cast<std::uint64_t>(seed)));
    Rng rng(static_cast<std::uint64_t>(seed) + 999);
    for (int trial = 0; trial < 10; ++trial) {
        const NodeId src =
            static_cast<NodeId>(rng.below(topo.numHosts()));
        DestSet dests(topo.numHosts());
        const std::size_t degree = 1 + rng.below(12);
        while (dests.count() < degree) {
            const auto d =
                static_cast<NodeId>(rng.below(topo.numHosts()));
            if (d != src)
                dests.set(d);
        }
        DestSet delivered(topo.numHosts());
        int max_hops = 0;
        walkWorm(topo, src, dests, variant, delivered, max_hops);
        EXPECT_EQ(delivered, dests);
    }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSeeds, RoutingWalk,
    ::testing::Combine(
        ::testing::Values(RoutingVariant::ReplicateAfterLca,
                          RoutingVariant::ReplicateOnUpPath),
        ::testing::Values(1, 2, 3, 4, 5)));

TEST(Decode, UnicastWithinLeafSwitch)
{
    FatTree topo(4, 2);
    // Host 1 and host 2 share leaf switch 0.
    const SwitchRouting &sr = topo.routing().at(0);
    const RouteDecision route =
        sr.decode(DestSet::of(16, {2}), RoutingVariant::ReplicateAfterLca);
    EXPECT_FALSE(route.needsUp());
    ASSERT_EQ(route.downBranches.size(), 1u);
    EXPECT_EQ(route.downBranches[0].first, 2);
}

TEST(Decode, UnicastAcrossTreeNeedsUp)
{
    FatTree topo(4, 2);
    const SwitchRouting &sr = topo.routing().at(0);
    const RouteDecision route = sr.decode(
        DestSet::of(16, {15}), RoutingVariant::ReplicateAfterLca);
    EXPECT_TRUE(route.needsUp());
    EXPECT_TRUE(route.downBranches.empty());
    EXPECT_EQ(route.upCandidates.size(), 4u);
    EXPECT_EQ(route.upDests.count(), 1u);
}

TEST(Decode, AfterLcaHoldsWholeSetOnUpPath)
{
    FatTree topo(4, 2);
    const SwitchRouting &sr = topo.routing().at(0);
    // Host 1 is local; host 12 needs the root stage.
    const DestSet dests = DestSet::of(16, {1, 12});
    const RouteDecision route =
        sr.decode(dests, RoutingVariant::ReplicateAfterLca);
    EXPECT_TRUE(route.needsUp());
    EXPECT_TRUE(route.downBranches.empty());
    EXPECT_EQ(route.upDests, dests);
}

TEST(Decode, OnUpPathBranchesEagerly)
{
    FatTree topo(4, 2);
    const SwitchRouting &sr = topo.routing().at(0);
    const DestSet dests = DestSet::of(16, {1, 12});
    const RouteDecision route =
        sr.decode(dests, RoutingVariant::ReplicateOnUpPath);
    EXPECT_TRUE(route.needsUp());
    ASSERT_EQ(route.downBranches.size(), 1u);
    EXPECT_TRUE(route.downBranches[0].second.test(1));
    EXPECT_EQ(route.upDests.count(), 1u);
    EXPECT_TRUE(route.upDests.test(12));
}

TEST(Decode, MulticastSplitsAcrossDownPorts)
{
    FatTree topo(4, 2);
    // At root switch 4 (level 1, label 0): all hosts reachable down.
    const SwitchRouting &sr = topo.routing().at(topo.switchAt(1, 0));
    const DestSet dests = DestSet::of(16, {0, 5, 10, 15});
    const RouteDecision route =
        sr.decode(dests, RoutingVariant::ReplicateAfterLca);
    EXPECT_FALSE(route.needsUp());
    EXPECT_EQ(route.downBranches.size(), 4u); // one per subtree
}

TEST(DecodeDeath, EmptySetPanics)
{
    FatTree topo(4, 2);
    EXPECT_DEATH((void)topo.routing().at(0).decode(
                     DestSet(16), RoutingVariant::ReplicateAfterLca),
                 "empty destination set");
}

TEST(RoutingNames, ToString)
{
    EXPECT_STREQ(toString(PortDir::Down), "down");
    EXPECT_STREQ(toString(PortDir::Up), "up");
    EXPECT_STREQ(toString(RoutingVariant::ReplicateAfterLca),
                 "replicate-after-lca");
    EXPECT_STREQ(toString(UpPortPolicy::Adaptive), "adaptive");
}

} // namespace
} // namespace mdw
