/**
 * @file
 * Tests for the closed-loop collective kernels: manual-poll phase
 * sequencing (gather gates the release, rounds gate each other),
 * owner rotation for invalidation storms, multi-tenant membership,
 * end-to-end runs whose message accounting must balance, the
 * WorkloadMix that runs a kernel over a background, and the E10
 * barrier-over-background shape under every scheduler mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/network.hh"
#include "core/presets.hh"
#include "scoped_env.hh"
#include "workload/kernels.hh"

namespace mdw {
namespace {

WorkloadParams
kernelParams(CollectiveOp op, int rounds)
{
    WorkloadParams params;
    params.kind = WorkloadKind::Collective;
    params.collective = op;
    params.rounds = rounds;
    return params;
}

// Play the NIC by hand: gather unicasts appear at cycle 0, the
// release multicast only after the *last* gather completion, and no
// earlier than that completion + 1 (the release rule).
TEST(CollectiveKernel, BarrierPhaseSequencing)
{
    CollectiveKernelWorkload w(4, kernelParams(CollectiveOp::Barrier, 1));

    std::vector<MessageSpec> out;
    w.poll(0, 0, out);
    EXPECT_TRUE(out.empty()) << "the root has nothing to gather";
    for (NodeId n = 1; n < 4; ++n) {
        out.clear();
        EXPECT_EQ(w.nextArrival(n, 0), 0u);
        w.poll(n, 0, out);
        ASSERT_EQ(out.size(), 1u) << "node " << n;
        EXPECT_FALSE(out[0].multicast);
        EXPECT_EQ(out[0].dest, 0);
        // Post it as message id = node number.
        w.onPosted(n, out[0].token, static_cast<MsgId>(n), 0);
    }

    w.onCompleted(1, 1, 8);
    w.onCompleted(2, 2, 9);
    out.clear();
    w.poll(0, 9, out);
    EXPECT_TRUE(out.empty()) << "released before the last gather";

    w.onCompleted(3, 3, 10);
    EXPECT_EQ(w.nextArrival(0, 10), 11u) << "release rule: t+1";
    w.poll(0, 10, out);
    EXPECT_TRUE(out.empty());
    w.poll(0, 11, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].multicast);
    EXPECT_EQ(out[0].dests, DestSet::of(4, {1, 2, 3}));

    EXPECT_FALSE(w.exhausted());
    w.onPosted(0, out[0].token, 99, 11);
    w.onCompleted(99, 0, 30);
    EXPECT_TRUE(w.exhausted());
    EXPECT_EQ(w.roundsCompleted(), 1u);
    EXPECT_DOUBLE_EQ(w.roundCycles().mean(), 30.0);
}

TEST(CollectiveKernel, InvalidateRotatesOwner)
{
    WorkloadParams params = kernelParams(CollectiveOp::Invalidate, 2);
    CollectiveKernelWorkload w(4, params);

    std::vector<MessageSpec> out;
    w.poll(0, 0, out);
    ASSERT_EQ(out.size(), 1u) << "round 0 owner is node 0";
    EXPECT_TRUE(out[0].multicast);
    EXPECT_EQ(out[0].dests, DestSet::of(4, {1, 2, 3}));
    w.onPosted(0, out[0].token, 7, 0);
    w.onCompleted(7, 0, 5);

    // Round 1 rotates to node 1 and starts at completion + 1 + think.
    out.clear();
    EXPECT_EQ(w.nextArrival(1, 6), 6u);
    w.poll(1, 6, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].dests, DestSet::of(4, {0, 2, 3}));
    w.onPosted(1, out[0].token, 8, 6);
    w.onCompleted(8, 1, 12);
    EXPECT_TRUE(w.exhausted());
    EXPECT_EQ(w.roundsCompleted(), 2u);
}

TEST(CollectiveKernel, MultiTenantMembership)
{
    WorkloadParams params = kernelParams(CollectiveOp::Allreduce, 1);
    params.groups = 6;
    CollectiveKernelWorkload w(16, params);

    ASSERT_EQ(w.numGroups(), 6u);
    for (std::size_t g = 0; g < w.numGroups(); ++g) {
        const std::vector<NodeId> &members = w.groupMembers(g);
        EXPECT_GE(members.size(), 2u) << "group " << g;
        EXPECT_LE(members.size(), 16u) << "group " << g;
        std::set<NodeId> unique(members.begin(), members.end());
        EXPECT_EQ(unique.size(), members.size())
            << "duplicate member in group " << g;
        for (const NodeId m : members) {
            EXPECT_GE(m, 0);
            EXPECT_LT(m, 16);
        }
    }
    // Same seed, same membership: the generator is deterministic.
    CollectiveKernelWorkload w2(16, params);
    for (std::size_t g = 0; g < w.numGroups(); ++g)
        EXPECT_EQ(w.groupMembers(g), w2.groupMembers(g)) << g;
}

void
runToExhaustion(Network &net, CollectiveKernelWorkload &w)
{
    net.attachWorkload(&w);
    net.tracker().setWindow(0, kNoCycle);
    net.armWatchdog(100000);
    ASSERT_TRUE(net.sim().runUntil(
        [&net, &w] { return w.exhausted() && net.idle(); }, 500000));
    // Accounting must balance: every posted message retired.
    const MetricsSnapshot metrics = net.metricsSnapshot();
    EXPECT_EQ(metrics.sumCounters("messages_posted"),
              net.tracker().totalCompleted() +
                  net.tracker().partialCompleted());
    EXPECT_EQ(net.tracker().inFlight(), 0u);
}

TEST(CollectiveKernel, BarrierEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeN = 2; // 16 hosts
    Network net(config);
    CollectiveKernelWorkload w(net.numHosts(),
                               kernelParams(CollectiveOp::Barrier, 3));
    runToExhaustion(net, w);
    EXPECT_EQ(w.roundsCompleted(), 3u);
    // Per round: 15 gather unicasts + 1 release multicast.
    EXPECT_EQ(net.tracker().totalCompleted(), 3u * 16u);
}

TEST(CollectiveKernel, AllreduceEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeN = 2;
    Network net(config);
    WorkloadParams params = kernelParams(CollectiveOp::Allreduce, 2);
    params.think = 25;
    CollectiveKernelWorkload w(net.numHosts(), params);
    runToExhaustion(net, w);
    EXPECT_EQ(w.roundsCompleted(), 2u);
    EXPECT_EQ(net.tracker().totalCompleted(), 2u * 16u);
    EXPECT_GT(w.roundCycles().mean(), 0.0);
}

TEST(CollectiveKernel, InvalidateEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeN = 2;
    Network net(config);
    CollectiveKernelWorkload w(
        net.numHosts(), kernelParams(CollectiveOp::Invalidate, 5));
    runToExhaustion(net, w);
    EXPECT_EQ(w.roundsCompleted(), 5u);
    // One multicast per round.
    EXPECT_EQ(net.tracker().totalCompleted(), 5u);
}

TEST(CollectiveKernel, MultiTenantEndToEnd)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeN = 2;
    Network net(config);
    WorkloadParams params = kernelParams(CollectiveOp::Allreduce, 2);
    params.groups = 4;
    params.think = 10;
    CollectiveKernelWorkload w(net.numHosts(), params);
    runToExhaustion(net, w);
    EXPECT_EQ(w.roundsCompleted(), 4u * 2u);
    EXPECT_EQ(w.roundCycles().count(), 8u);
}

// Two same-node, same-cycle emissions released by *different*
// completions observed in the same cycle must be handed to the NIC in
// an order independent of the hook arrival order -- the oracle and
// the fast path do not guarantee the same intra-cycle completion
// order, so hook order must never leak into message-id assignment.
class ForkJoinWorkload : public ClosedLoopWorkload
{
  public:
    explicit ForkJoinWorkload(std::size_t numHosts)
        : ClosedLoopWorkload(numHosts)
    {
        for (std::uint64_t token : {1u, 2u}) {
            MessageSpec spec;
            spec.dest = static_cast<NodeId>(token);
            spec.payloadFlits = 8;
            scheduleSend(3, 0, spec, token);
        }
    }

  protected:
    void
    onTokenCompleted(std::uint64_t token, Cycle now) override
    {
        if (token >= 100)
            return;
        // Completion of seed k releases follow-up k+100 from node 0.
        MessageSpec spec;
        spec.dest = 2;
        spec.payloadFlits = 8;
        scheduleSend(0, now + 1, spec, token + 100);
    }
};

TEST(ClosedLoop, SameCycleReleasesIgnoreHookArrivalOrder)
{
    std::vector<std::uint64_t> orders[2];
    for (int swap = 0; swap < 2; ++swap) {
        ForkJoinWorkload w(4);
        std::vector<MessageSpec> out;
        w.poll(3, 0, out);
        ASSERT_EQ(out.size(), 2u);
        w.onPosted(3, out[0].token, 11, 0);
        w.onPosted(3, out[1].token, 12, 0);
        // Both seeds complete at cycle 9, observed in either order.
        w.onCompleted(swap ? 12 : 11, 3, 9);
        w.onCompleted(swap ? 11 : 12, 3, 9);
        out.clear();
        w.poll(0, 10, out);
        ASSERT_EQ(out.size(), 2u);
        for (const MessageSpec &spec : out)
            orders[swap].push_back(spec.token);
    }
    EXPECT_EQ(orders[0], orders[1])
        << "emission order depends on completion hook order";
}

/** A 16-host fabric with short NIC overheads. */
NetworkConfig
smallNet(McastScheme scheme = McastScheme::Hardware)
{
    NetworkConfig config = defaultNetwork();
    config.fatTreeK = 4;
    config.fatTreeN = 2;
    config.nic.scheme = scheme;
    config.nic.sendOverhead = 20;
    config.nic.recvOverhead = 20;
    return config;
}

/** Cycles of one barrier round over @p groupSize hosts (0 = all). */
Cycle
barrierRound(McastScheme scheme, int groupSize = 0)
{
    Network net(smallNet(scheme));
    WorkloadParams params = kernelParams(CollectiveOp::Barrier, 1);
    params.groupSize = groupSize;
    CollectiveKernelWorkload w(net.numHosts(), params);
    runToExhaustion(net, w);
    net.detachWorkload();
    EXPECT_EQ(w.roundsCompleted(), 1u);
    return static_cast<Cycle>(w.roundCycles().mean());
}

class KernelBothSchemes : public ::testing::TestWithParam<McastScheme>
{
};

TEST_P(KernelBothSchemes, BarrierWorksUnderEitherScheme)
{
    // A 7-member communicator (random members, random root): 6
    // gather unicasts, then one release to 6 members.
    EXPECT_GT(barrierRound(GetParam(), 7), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, KernelBothSchemes,
                         ::testing::Values(McastScheme::Hardware,
                                           McastScheme::Software));

TEST(CollectiveKernel, HardwareMulticastBarrierBeatsSoftware)
{
    // The release broadcast dominates; single-phase worms shrink it.
    const Cycle hw = barrierRound(McastScheme::Hardware);
    const Cycle sw = barrierRound(McastScheme::Software);
    ASSERT_GT(hw, 0u);
    ASSERT_GT(sw, 0u);
    EXPECT_LT(hw, sw);
}

TEST(CollectiveKernel, AllreduceOutlastsBarrier)
{
    // Same gather-then-release shape, but an allreduce moves a data
    // payload in both phases where a barrier moves control flits.
    auto roundOf = [](CollectiveOp op) {
        Network net(smallNet());
        CollectiveKernelWorkload w(net.numHosts(), kernelParams(op, 1));
        runToExhaustion(net, w);
        net.detachWorkload();
        EXPECT_EQ(w.roundsCompleted(), 1u);
        // 15 gather unicasts + 1 release multicast.
        EXPECT_EQ(net.tracker().totalCompleted(), 16u);
        return static_cast<Cycle>(w.roundCycles().mean());
    };
    const Cycle barrier = roundOf(CollectiveOp::Barrier);
    const Cycle allreduce = roundOf(CollectiveOp::Allreduce);
    ASSERT_GT(barrier, 0u);
    EXPECT_GT(allreduce, barrier);
}

TEST(CollectiveKernel, ConcurrentInvalidatesFromDifferentOwners)
{
    // Four groups start their invalidation multicasts within one
    // 128-cycle jitter window, from more than one owner; every one
    // must finish.
    Network net(smallNet());
    WorkloadParams params = kernelParams(CollectiveOp::Invalidate, 1);
    params.groups = 4;
    CollectiveKernelWorkload w(net.numHosts(), params);
    ASSERT_EQ(w.numGroups(), 4u);
    std::set<NodeId> owners;
    for (std::size_t g = 0; g < w.numGroups(); ++g)
        owners.insert(w.groupMembers(g)[0]);
    ASSERT_GE(owners.size(), 2u);
    runToExhaustion(net, w);
    net.detachWorkload();
    EXPECT_EQ(w.roundsCompleted(), 4u);
    // One multicast per group.
    EXPECT_EQ(net.tracker().totalCompleted(), 4u);
}

// ---------------------------------------------------------------------
// WorkloadMix
// ---------------------------------------------------------------------

MessageSpec
unicastTo(NodeId dest, int payloadFlits)
{
    MessageSpec spec;
    spec.dest = dest;
    spec.payloadFlits = payloadFlits;
    return spec;
}

TEST(WorkloadMix, PollsChildrenInOrder)
{
    ScriptedTraffic first, second;
    first.post(5, 1, unicastTo(2, 11));
    second.post(5, 1, unicastTo(3, 22));
    second.post(5, 1, unicastTo(4, 33));
    WorkloadMix mix({&second, &first});

    std::vector<MessageSpec> out;
    mix.poll(1, 4, out);
    EXPECT_TRUE(out.empty());
    mix.poll(1, 5, out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].payloadFlits, 22);
    EXPECT_EQ(out[1].payloadFlits, 33);
    EXPECT_EQ(out[2].payloadFlits, 11);
}

TEST(WorkloadMix, NextArrivalIsTheMinimumAndExhaustionIsJoint)
{
    ScriptedTraffic a, b;
    a.post(10, 2, unicastTo(0, 8));
    b.post(7, 2, unicastTo(1, 8));
    WorkloadMix mix({&a, &b});

    EXPECT_EQ(mix.nextArrival(2, 0), 7u);
    EXPECT_EQ(mix.nextArrival(3, 0), kNoCycle);
    EXPECT_FALSE(mix.exhausted());

    std::vector<MessageSpec> out;
    mix.poll(2, 7, out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(b.exhausted());
    EXPECT_EQ(mix.nextArrival(2, 8), 10u);
    EXPECT_FALSE(mix.exhausted()) << "one child still has work";

    mix.poll(2, 10, out);
    EXPECT_EQ(mix.nextArrival(2, 11), kNoCycle);
    EXPECT_TRUE(mix.exhausted());
}

/** Records every notification, and can request a NIC wake. */
class ProbeWorkload : public Workload
{
  public:
    void
    poll(NodeId node, Cycle now, std::vector<MessageSpec> &out) override
    {
        if (armed_ && node == node_ && now >= at_) {
            out.push_back(unicastTo(static_cast<NodeId>(node_ + 1), 8));
            out.back().token = 7;
            armed_ = false;
        }
    }

    Cycle
    nextArrival(NodeId node, Cycle now) override
    {
        return armed_ && node == node_ ? std::max(at_, now) : kNoCycle;
    }

    void
    onPosted(NodeId src, std::uint64_t token, MsgId msg,
             Cycle now) override
    {
        log.push_back("posted " + std::to_string(src) + " " +
                      std::to_string(token) + " " +
                      std::to_string(msg));
        postedAt = now;
    }

    void
    onCompleted(MsgId msg, NodeId src, Cycle now) override
    {
        (void)now;
        log.push_back("completed " + std::to_string(msg) + " " +
                      std::to_string(src));
    }

    bool exhausted() const override { return !armed_; }

    /** Emit one unicast from @p node at @p at, waking its NIC. */
    void
    release(NodeId node, Cycle at)
    {
        armed_ = true;
        node_ = node;
        at_ = at;
        wake(node, at);
    }

    std::vector<std::string> log;
    Cycle postedAt = kNoCycle;

  private:
    bool armed_ = false;
    NodeId node_ = 0;
    Cycle at_ = 0;
};

TEST(WorkloadMix, HooksFanOutToEveryChild)
{
    ProbeWorkload a, b;
    WorkloadMix mix({&a, &b});
    mix.onPosted(3, 9, 41, 100);
    mix.onCompleted(41, 3, 121);
    const std::vector<std::string> expected = {"posted 3 9 41",
                                               "completed 41 3"};
    EXPECT_EQ(a.log, expected);
    EXPECT_EQ(b.log, expected);
    EXPECT_EQ(a.postedAt, 100u);
    EXPECT_EQ(b.postedAt, 100u);
}

// A child's wake must reach the NIC through the mix once the mix is
// attached: on the fast path the releasing node's NIC is asleep, and
// only the wake brings it back in time to post on the release cycle.
TEST(WorkloadMix, ChildWakeReachesTheNicAfterAttach)
{
    // Only the fast path sleeps NICs, so pin it against the suite-wide
    // oracle override (MDW_FAST_PATH=0).
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    NetworkConfig config = smallNet();
    config.fastPath = true;
    Network net(config);
    ScriptedTraffic background;
    background.post(0, 0, unicastTo(9, 16));
    ProbeWorkload probe;
    WorkloadMix mix({&background, &probe});
    net.attachWorkload(&mix);
    net.tracker().setWindow(0, kNoCycle);

    net.sim().run(5);
    ASSERT_TRUE(net.sim().runUntil([&] { return net.idle(); }, 20000));
    const Cycle release = net.sim().now() + 100;
    probe.release(3, release);
    ASSERT_TRUE(net.sim().runUntil(
        [&] { return mix.exhausted() && net.idle(); }, 20000));
    net.detachWorkload();

    EXPECT_EQ(probe.postedAt, release);
    EXPECT_EQ(net.tracker().totalCompleted(), 2u);
    EXPECT_EQ(net.nic(4).stats().packetsDelivered.value(), 1u);
    // The probe also saw the background message's notifications.
    EXPECT_EQ(background.pending(), 0u);
    EXPECT_EQ(probe.log.size(), 4u);
}

// ---------------------------------------------------------------------
// E10 shape: barrier kernel over a uniform unicast background
// ---------------------------------------------------------------------

struct E10Outcome
{
    std::uint64_t rounds = 0;
    double roundMean = 0.0, roundMin = 0.0, roundMax = 0.0;
    std::uint64_t unicasts = 0;
    double unicastMean = 0.0, unicastMax = 0.0;
    std::uint64_t completed = 0, deliveries = 0;
    Cycle endCycle = 0;
    std::uint32_t effectiveShards = 0;
};

E10Outcome
runE10Shape(bool fastPath, std::size_t shards)
{
    NetworkConfig config = smallNet();
    config.fastPath = fastPath;
    config.shards = shards;
    Network net(config);

    WorkloadParams bg;
    bg.pattern = TrafficPattern::UniformUnicast;
    bg.load = 0.1;
    bg.payloadFlits = 64;
    SyntheticTraffic background(net.numHosts(), bg);
    WorkloadParams params = kernelParams(CollectiveOp::Barrier, 3);
    params.startCycle = 500;
    params.think = 200;
    CollectiveKernelWorkload kernel(net.numHosts(), params);
    WorkloadMix mix({&kernel, &background});
    net.attachWorkload(&mix);
    net.tracker().setWindow(0, kNoCycle);
    net.armWatchdog(50000);

    EXPECT_TRUE(net.sim().runUntil([&] { return kernel.exhausted(); },
                                   200000));
    net.sim().run(200);
    net.detachWorkload();

    E10Outcome o;
    o.rounds = kernel.roundCycles().count();
    o.roundMean = kernel.roundCycles().mean();
    o.roundMin = kernel.roundCycles().min();
    o.roundMax = kernel.roundCycles().max();
    o.unicasts = net.tracker().unicastLatency().count();
    o.unicastMean = net.tracker().unicastLatency().mean();
    o.unicastMax = net.tracker().unicastLatency().max();
    o.completed = net.tracker().totalCompleted();
    o.deliveries = net.tracker().totalDeliveries();
    o.endCycle = net.sim().now();
    o.effectiveShards = net.effectiveShards();
    return o;
}

TEST(CollectiveKernel, BarrierOverBackgroundIdenticalInEveryMode)
{
    // Pin the three modes against the suite-wide overrides.
    const ScopedEnv fastPath("MDW_FAST_PATH", nullptr);
    const ScopedEnv shards("MDW_SHARDS", nullptr);
    const E10Outcome oracle = runE10Shape(false, 1);
    ASSERT_EQ(oracle.rounds, 3u);
    ASSERT_GT(oracle.unicasts, 0u) << "the background never ran";
    for (const std::size_t s : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("fast path, shards=" + std::to_string(s));
        const E10Outcome got = runE10Shape(true, s);
        EXPECT_EQ(got.effectiveShards, s == 1 ? 0u : s);
        EXPECT_EQ(got.rounds, oracle.rounds);
        EXPECT_EQ(got.roundMean, oracle.roundMean);
        EXPECT_EQ(got.roundMin, oracle.roundMin);
        EXPECT_EQ(got.roundMax, oracle.roundMax);
        EXPECT_EQ(got.unicasts, oracle.unicasts);
        EXPECT_EQ(got.unicastMean, oracle.unicastMean);
        EXPECT_EQ(got.unicastMax, oracle.unicastMax);
        EXPECT_EQ(got.completed, oracle.completed);
        EXPECT_EQ(got.deliveries, oracle.deliveries);
        EXPECT_EQ(got.endCycle, oracle.endCycle);
    }
}

TEST(CollectiveKernelDeath, BadParamsPanic)
{
    WorkloadParams params = kernelParams(CollectiveOp::Barrier, 1);
    params.groupSize = 1;
    EXPECT_DEATH(CollectiveKernelWorkload(16, params), "group size");
    params.groupSize = 0;
    params.rounds = 0;
    EXPECT_DEATH(CollectiveKernelWorkload(16, params), "rounds");
    params.rounds = 1;
    params.kind = WorkloadKind::Synthetic;
    EXPECT_DEATH(CollectiveKernelWorkload(16, params), "synthetic");
}

} // namespace
} // namespace mdw
