/**
 * @file
 * A5 — Microbenchmark (google-benchmark): simulation speed of whole
 * loaded networks, in simulated cycles per second, for both switch
 * architectures and two system sizes.
 */

#include <benchmark/benchmark.h>

#include "core/presets.hh"

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

} // namespace

BENCHMARK_MAIN();
