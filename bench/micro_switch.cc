/**
 * @file
 * A5 — Microbenchmark (google-benchmark): simulation speed of whole
 * loaded networks, in simulated cycles per second, for both switch
 * architectures and two system sizes; plus the flit-path primitives
 * underneath them (a loaded link, a credit loop, a central-queue
 * entry's write/read lifecycle), the routing tables (building a
 * fat tree's tables, decoding a multicast) up to 65,536 hosts, and
 * the resident cost of a whole network and of its metrics snapshot.
 */

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/presets.hh"
#include "sim/channel.hh"
#include "sim/rng.hh"
#include "switch/central_queue.hh"
#include "topology/fat_tree.hh"

namespace {

using namespace mdw;

void
runNetwork(benchmark::State &state, SwitchArch arch, int stages)
{
    NetworkConfig config = defaultNetwork();
    config.arch = arch;
    config.fatTreeN = stages;
    Network net(config);

    WorkloadParams traffic = defaultTraffic();
    traffic.load = 0.08;
    SyntheticTraffic source(net.numHosts(), traffic);
    net.attachWorkload(&source);

    // Warm the pipes so the steady state is measured.
    net.sim().run(2000);
    for (auto _ : state)
        net.sim().stepOne();
    state.SetItemsProcessed(state.iterations());
    state.counters["hosts"] =
        static_cast<double>(net.numHosts());
}

void
BM_CentralBufferNetwork(benchmark::State &state)
{
    runNetwork(state, SwitchArch::CentralBuffer,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_CentralBufferNetwork)->Arg(2)->Arg(3);

void
BM_InputBufferNetwork(benchmark::State &state)
{
    runNetwork(state, SwitchArch::InputBuffer,
               static_cast<int>(state.range(0)));
}
BENCHMARK(BM_InputBufferNetwork)->Arg(2)->Arg(3);

PacketPtr
benchPacket(int payloadFlits)
{
    PacketDesc proto;
    proto.id = 1;
    proto.dests = DestSet::of(4, {1});
    proto.headerFlits = 2;
    proto.payloadFlits = payloadFlits;
    return std::make_shared<const PacketDesc>(std::move(proto));
}

/** One cycle of a link kept state.range(0) flits deep: send one flit,
 *  receive the one that arrives. */
void
BM_ChannelFlitRoundTrip(benchmark::State &state)
{
    const PacketPtr pkt = benchPacket(14);
    const auto delay = static_cast<Cycle>(state.range(0));
    Channel<Flit> link(delay);
    Cycle now = 0;
    for (; now < delay; ++now)
        link.send(Flit{pkt, 0, 0}, now);
    for (auto _ : state) {
        link.send(Flit{pkt, static_cast<int>(now & 15), 0}, now);
        Flit flit = link.receive(now);
        benchmark::DoNotOptimize(flit);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelFlitRoundTrip)->Arg(1)->Arg(8);

/** One cycle of a credit loop state.range(0) grants deep. */
void
BM_CreditRoundTrip(benchmark::State &state)
{
    const auto delay = static_cast<Cycle>(state.range(0));
    CreditChannel credits(delay);
    Cycle now = 0;
    for (; now < delay; ++now)
        credits.send(1, now);
    for (auto _ : state) {
        credits.send(1, now);
        benchmark::DoNotOptimize(credits.receive(now));
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CreditRoundTrip)->Arg(1)->Arg(8);

/** Admit a 64-flit packet read by state.range(0) branches, write it
 *  and read it out chunk by chunk until the entry retires. */
void
BM_CentralQueueWriteRead(benchmark::State &state)
{
    const PacketPtr pkt = benchPacket(62);
    const auto readers = static_cast<int>(state.range(0));
    CentralQueue cq(CqParams{128, 8, 8});
    for (auto _ : state) {
        const CentralQueue::EntryId id = cq.addReserved(pkt, readers);
        for (int written = 0; written < pkt->totalFlits(); written += 8) {
            cq.write(id, 8);
            for (int r = 0; r < readers; ++r)
                benchmark::DoNotOptimize(cq.read(id, r, 8));
        }
        benchmark::DoNotOptimize(cq.alive(id));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CentralQueueWriteRead)->Arg(1)->Arg(4);

/** Bytes in use on the heap, mmapped blocks included (0 where the
 *  C library cannot say). */
double
heapInUse()
{
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
#else
    return 0.0;
#endif
}

/** Build the routing tables of a FatTree(4, state.range(0)); the
 *  heap_mb counter is what one set of tables keeps. */
void
BM_RoutingBuild(benchmark::State &state)
{
    const FatTree tree(4, static_cast<int>(state.range(0)));
    double heap = 0.0;
    for (auto _ : state) {
        const double before = heapInUse();
        const NetworkRouting routing(tree.graph(), tree.dirs());
        heap = heapInUse() - before;
        benchmark::DoNotOptimize(&routing);
    }
    state.counters["hosts"] = static_cast<double>(tree.numHosts());
    state.counters["heap_mb"] = heap / (1 << 20);
}
BENCHMARK(BM_RoutingBuild)
    ->Arg(5)
    ->Arg(7)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** Build the CB-HW network of a FatTree(4, state.range(0)) as the
 *  E14 scale curve does (multiport headers) and take one metrics
 *  snapshot of it; heap_mb is what the network keeps, snapshot_mb
 *  what the snapshot keeps. */
void
BM_NetworkBuild(benchmark::State &state)
{
    NetworkConfig config = networkFor(Scheme::CbHw);
    config.fatTreeN = static_cast<int>(state.range(0));
    config.nic.encoding = McastEncoding::Multiport;
    double heap = 0.0;
    double snapshot = 0.0;
    std::size_t hosts = 0;
    for (auto _ : state) {
        const double before = heapInUse();
        const Network net(config);
        heap = heapInUse() - before;
        const double built = heapInUse();
        const MetricsSnapshot snap = net.metricsSnapshot();
        snapshot = heapInUse() - built;
        hosts = net.numHosts();
        benchmark::DoNotOptimize(snap.size());
    }
    state.counters["hosts"] = static_cast<double>(hosts);
    state.counters["heap_mb"] = heap / (1 << 20);
    state.counters["snapshot_mb"] = snapshot / (1 << 20);
}
BENCHMARK(BM_NetworkBuild)->Arg(5)->Arg(6)->Unit(benchmark::kMillisecond);

/** Decode a degree-8 multicast (ReplicateAfterLca) in a
 *  FatTree(4, state.range(0)), at a leaf switch (range(1) = 0), where
 *  it turns up, or at a root (1), where it splits into branches. */
void
BM_Decode(benchmark::State &state)
{
    const FatTree tree(4, static_cast<int>(state.range(0)));
    const SwitchRouting &sr = tree.routing().at(
        state.range(1) == 0 ? tree.switchAt(0, 0)
                            : tree.switchAt(tree.n() - 1, 0));
    Rng rng(7);
    DestSet dests(tree.numHosts());
    while (dests.count() < 8)
        dests.set(static_cast<NodeId>(rng.below(tree.numHosts())));
    for (auto _ : state) {
        RouteDecision route =
            sr.decode(dests, RoutingVariant::ReplicateAfterLca);
        benchmark::DoNotOptimize(route);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["hosts"] = static_cast<double>(tree.numHosts());
}
BENCHMARK(BM_Decode)->ArgsProduct({{5, 7, 8}, {0, 1}});

} // namespace

BENCHMARK_MAIN();
