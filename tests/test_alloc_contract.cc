/**
 * @file
 * Allocation contract of the flit path: once queues have reached
 * their working depth, moving flits over links, through the central
 * queue and out of a NIC allocates nothing. Registering metrics
 * allocates per scope (per component), not per metric. Building a
 * fat tree's routing tables allocates the same bytes per switch port
 * at every size, and building a network or snapshotting its metrics
 * stays under a stated byte budget per switch or per metric.
 *
 * This file replaces the global operator new/delete of the test
 * binary with malloc-backed versions that count allocations and
 * their bytes (relaxed atomics, so the suite stays clean under the
 * thread sanitizer). Packets are built before each counting window: the
 * contract covers the per-flit and per-entry work, not packet
 * construction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <new>
#include <vector>

#include "core/network.hh"
#include "core/presets.hh"
#include "host/mcast_tracker.hh"
#include "host/nic.hh"
#include "message/flit.hh"
#include "scoped_env.hh"
#include "sim/channel.hh"
#include "sim/telemetry.hh"
#include "switch/central_buffer_switch.hh"
#include "switch/central_queue.hh"
#include "topology/fat_tree.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> allocatedBytes{0};

void *
countedAlloc(std::size_t size, std::size_t align = 0)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    allocatedBytes.fetch_add(size, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align == 0
                  ? std::malloc(size)
                  : std::aligned_alloc(align,
                                       (size + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAllocNoThrow(std::size_t size, std::size_t align = 0) noexcept
{
    try {
        return countedAlloc(size, align);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

std::uint64_t
allocationCount()
{
    return allocations.load(std::memory_order_relaxed);
}

std::uint64_t
allocationBytes()
{
    return allocatedBytes.load(std::memory_order_relaxed);
}

} // namespace

// Every form is replaced, so all memory the binary allocates through
// operator new comes from malloc and goes back through free.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n);
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return countedAllocNoThrow(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace mdw {
namespace {

constexpr Cycle kWarmup = 200;
constexpr Cycle kWindow = 2000;

PacketPtr
makePkt(PacketFactory &factory, int payload)
{
    PacketDesc proto;
    proto.src = 0;
    proto.dests = DestSet::of(4, {1});
    proto.kind = PacketKind::Unicast;
    proto.headerFlits = 2;
    proto.payloadFlits = payload;
    return factory.make(std::move(proto));
}

TEST(AllocContract, CountingOperatorNewSeesAllocations)
{
    const std::uint64_t before = allocationCount();
    auto owned = std::make_unique<int>(1);
    EXPECT_EQ(allocationCount() - before, 1u);
    EXPECT_EQ(*owned, 1);
}

TEST(AllocContract, LoadedLinkAndCreditLoopAllocateNothing)
{
    // A sender with an 8-flit window streams flits over a 3-cycle
    // link; the receiver consumes each arrival and returns a credit
    // over a 2-cycle reverse wire, so both queues stay several deep.
    PacketFactory factory;
    const PacketPtr pkt = makePkt(factory, 62);
    Channel<Flit> link(3);
    CreditChannel credits(2);
    int window = 8;
    std::uint64_t received = 0;
    const auto cycle = [&](Cycle now) {
        window += credits.receive(now);
        if (window > 0) {
            link.send(Flit{pkt, static_cast<int>(now % 64), 0}, now);
            --window;
        }
        if (link.peek(now) != nullptr) {
            (void)link.receive(now);
            ++received;
            credits.send(1, now);
        }
    };
    for (Cycle now = 0; now < kWarmup; ++now)
        cycle(now);

    const std::uint64_t before = allocationCount();
    const std::uint64_t receivedBefore = received;
    for (Cycle now = kWarmup; now < kWarmup + kWindow; ++now)
        cycle(now);
    const std::uint64_t allocated = allocationCount() - before;

    EXPECT_EQ(allocated, 0u);
    EXPECT_GT(received - receivedBefore, kWindow / 2);
    EXPECT_GT(link.inFlight(), 1u);
}

TEST(AllocContract, CentralQueueEntryLoopAllocatesNothing)
{
    PacketFactory factory;
    const PacketPtr pkt = makePkt(factory, 22);
    CentralQueue cq(CqParams{16, 8, 2});
    std::uint64_t retired = 0;
    // One multicast-style reserved entry read by two branches, then
    // one unreserved unicast entry cut through chunk by chunk.
    const auto round = [&]() {
        const CentralQueue::EntryId mc = cq.addReserved(pkt, 2);
        cq.write(mc, pkt->totalFlits());
        while (cq.read(mc, 0, 8) > 0) {
        }
        while (cq.alive(mc) && cq.read(mc, 1, 8) > 0) {
        }
        retired += cq.alive(mc) ? 0 : 1;

        const CentralQueue::EntryId uc = cq.addUnreserved(pkt);
        cq.grantEscape(uc);
        while (cq.alive(uc)) {
            const int n = cq.writable(uc);
            if (n > 0)
                cq.write(uc, std::min(n, 8));
            (void)cq.read(uc, 0, 8);
        }
        ++retired;
    };
    for (Cycle i = 0; i < kWarmup; ++i)
        round();

    const std::uint64_t before = allocationCount();
    for (Cycle i = 0; i < kWindow; ++i)
        round();
    const std::uint64_t allocated = allocationCount() - before;

    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(retired, 2 * (kWarmup + kWindow));
    EXPECT_EQ(cq.entryCount(), 0u);
    EXPECT_EQ(cq.usedChunks(), 0);
}

TEST(AllocContract, NicInjectingBacklogAllocatesNothing)
{
    // A two-lane NIC with long messages queued on both lanes streams
    // its head packets' flits into a credit loop. Three credits per
    // lane do not cover the round trip, so the latency lane stalls
    // every fourth cycle and the bulk lane fills in. The window ends
    // before a queued job becomes head and builds its packet.
    PacketFactory factory;
    McastTracker tracker;
    NicParams params;
    params.sendOverhead = 0;
    params.lanes = 2;
    Nic nic("nic", 0, 4, params, &factory, &tracker);
    Channel<Flit> link(2);
    CreditChannel credits(2);
    nic.connectTx(&link, &credits, ReceivePolicy{3, false});
    for (NodeId dest = 1; dest <= 3; ++dest)
        nic.postUnicast(dest, 250, 0);
    nic.postUnicast(1, 250, 0, 0, 1); // latency lane

    const auto cycle = [&](Cycle now) {
        nic.step(now);
        (void)nic.nextWork(now);
        if (link.peek(now) != nullptr)
            credits.send(1, now, link.receive(now).lane);
    };
    Cycle now = 0;
    for (; now < 20; ++now)
        cycle(now);
    ASSERT_EQ(nic.stats().packetsInjected.value(), 2u);

    const std::uint64_t before = allocationCount();
    const std::uint64_t flitsBefore = nic.stats().flitsInjected.value();
    for (const Cycle end = now + 200; now < end; ++now)
        cycle(now);
    const std::uint64_t allocated = allocationCount() - before;

    EXPECT_EQ(allocated, 0u);
    EXPECT_GT(nic.stats().flitsInjected.value() - flitsBefore, 100u);
    EXPECT_EQ(nic.stats().packetsInjected.value(), 2u);
    EXPECT_EQ(nic.txBacklog(), 4u);
}

TEST(AllocContract, WaitingMulticastAllocatesNothing)
{
    // One central-buffer switch whose shared pool is pinned full: a
    // unicast bypasses to output 3, which never gets a credit, and a
    // second unicast queued behind it writes into the central queue
    // until the pool runs out. A multicast on a third input then
    // waits for its reservation every cycle on the route it decoded
    // once, allocating nothing while it waits.
    const FatTree tree(4, 1);
    const SwitchRouting &routing = tree.routing().at(0);
    CbParams cb;
    cb.cqChunks = 16;
    CentralBufferSwitch sw("sw", 0, &routing, SwitchParams{}, cb);
    const auto radix = static_cast<std::size_t>(routing.radix());
    std::vector<Channel<Flit>> outs(radix);
    std::vector<CreditChannel> outCredits(radix);
    for (std::size_t p = 0; p < radix; ++p)
        sw.connectOut(static_cast<PortId>(p), &outs[p], &outCredits[p],
                      ReceivePolicy{p == 3 ? 0 : 64, false});

    PacketFactory factory;
    const auto packet = [&factory](NodeId src, DestSet dests,
                                   PacketKind kind, int payload) {
        PacketDesc desc;
        desc.src = src;
        desc.dests = std::move(dests);
        desc.kind = kind;
        desc.headerFlits = 2;
        desc.payloadFlits = payload;
        return factory.make(std::move(desc));
    };
    const std::vector<PacketPtr> pkts = {
        packet(0, DestSet::of(4, {3}), PacketKind::Unicast, 100),
        packet(1, DestSet::of(4, {3}), PacketKind::Unicast, 150),
        packet(2, DestSet::of(4, {0, 1}), PacketKind::HwMulticast, 30)};
    std::vector<Channel<Flit>> ins(pkts.size());
    std::vector<CreditChannel> inCredits(pkts.size());
    // The multicast starts once the second unicast has filled the
    // pool (one chunk per 8 cycles).
    const std::vector<Cycle> start = {0, 0, 300};
    std::vector<int> window(pkts.size());
    std::vector<int> sent(pkts.size(), 0);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
        const auto port = static_cast<PortId>(i);
        sw.connectIn(port, &ins[i], &inCredits[i]);
        window[i] = sw.receivePolicy(port).window;
    }

    const auto cycle = [&](Cycle now) {
        for (std::size_t i = 0; i < pkts.size(); ++i) {
            window[i] += inCredits[i].receive(now);
            if (now >= start[i] && window[i] > 0 &&
                sent[i] < pkts[i]->totalFlits()) {
                ins[i].send(Flit{pkts[i], sent[i]++, 0}, now);
                --window[i];
            }
        }
        sw.step(now);
    };
    Cycle now = 0;
    for (; now < start.back() + kWarmup; ++now)
        cycle(now);
    ASSERT_EQ(sw.stats().packetsRouted.value(), 2u);
    ASSERT_GT(sw.stats().reservationStallCycles.value(), 0u);

    const std::uint64_t before = allocationCount();
    const std::uint64_t stallsBefore =
        sw.stats().reservationStallCycles.value();
    for (const Cycle end = now + kWindow; now < end; ++now)
        cycle(now);
    const std::uint64_t allocated = allocationCount() - before;

    EXPECT_EQ(allocated, 0u);
    EXPECT_EQ(sw.stats().reservationStallCycles.value() - stallsBefore,
              kWindow);
    EXPECT_EQ(sw.stats().packetsRouted.value(), 2u);
}

TEST(AllocContract, MetricRegistrationIsPerScope)
{
    // A switch-sized component: one scope, eight counters. Registering
    // 1,000 of them may allocate at most once per scope (amortized
    // vector growth costs far less), never once per metric.
    constexpr std::uint32_t kScopes = 1000;
    constexpr const char *kLeaves[] = {
        "flits_in",     "flits_out",        "packets_routed",
        "replications", "reservation_stall_cycles",
        "tombstoned_flits", "unroutable_dests", "tx_flits"};
    std::vector<Counter> counters(kScopes * std::size(kLeaves));
    MetricsRegistry reg;

    const std::uint64_t before = allocationCount();
    std::size_t next = 0;
    for (std::uint32_t s = 0; s < kScopes; ++s) {
        const MetricsRegistry::ScopeId scope = reg.scope("switch.", s);
        for (const char *leaf : kLeaves)
            reg.registerCounter(scope, leaf, &counters[next++]);
    }
    const std::uint64_t allocated = allocationCount() - before;

    EXPECT_EQ(reg.size(), counters.size());
    EXPECT_LE(allocated, kScopes);
    EXPECT_EQ(reg.names()[8 * 2 + 1], "switch.10.flits_out");
}

/**
 * The 256-host CB-HW network the memory bounds below are stated for,
 * with the suite-wide lane and shard overrides pinned off (more lanes
 * scale every per-port array; shards add boundary lists).
 */
NetworkConfig
memoryNetwork()
{
    NetworkConfig config = networkFor(Scheme::CbHw);
    config.fatTreeN = 4;
    return config;
}

TEST(AllocContract, NetworkBuildBytesPerSwitch)
{
    // Everything the constructor allocates (topology, routing,
    // switches, NICs, channels, metric registrations, temporaries
    // included), per switch: about 7,810 bytes, so the bound leaves
    // about 5% headroom.
    const ScopedEnv lanes("MDW_LANES", nullptr);
    const ScopedEnv shards("MDW_SHARDS", nullptr);
    const std::uint64_t before = allocationBytes();
    const Network net(memoryNetwork());
    const double per_switch =
        static_cast<double>(allocationBytes() - before) /
        static_cast<double>(net.numSwitches());
    ASSERT_EQ(net.numSwitches(), 256u);
    EXPECT_LE(per_switch, 8200.0);
}

TEST(AllocContract, SnapshotBytesPerMetric)
{
    // One snapshot, all bytes allocated on the way (temporaries
    // included), per metric: the name arena, one 16-byte entry and
    // the few samplers come to about 42.
    const ScopedEnv lanes("MDW_LANES", nullptr);
    const ScopedEnv shards("MDW_SHARDS", nullptr);
    const Network net(memoryNetwork());
    const std::uint64_t before = allocationBytes();
    const MetricsSnapshot snap = net.metricsSnapshot();
    const double per_metric =
        static_cast<double>(allocationBytes() - before) /
        static_cast<double>(snap.size());
    EXPECT_GT(snap.size(), 7000u);
    EXPECT_LE(per_metric, 64.0);
}

TEST(AllocContract, FatTreeRoutingBytesPerPortDoNotGrow)
{
    // All bytes a FatTree(4, n) build allocates (graph, directions,
    // routing tables and their temporaries), per switch port: about
    // 90 at every size with host intervals. N-bit masks cost hosts/8
    // bytes each and grow 4x per level, so the check stops at the
    // first size that grows rather than build the larger ones.
    double first = 0;
    for (int n = 4; n <= 7; ++n) {
        const std::uint64_t before = allocationBytes();
        const FatTree tree(4, n);
        const double per_port =
            static_cast<double>(allocationBytes() - before) /
            static_cast<double>(tree.numSwitches() * 8);
        if (n == 4)
            first = per_port;
        ASSERT_LE(per_port, first * 1.1)
            << "FatTree(4," << n << "): " << tree.numHosts() << " hosts";
    }
}

} // namespace
} // namespace mdw
