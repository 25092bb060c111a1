/**
 * @file
 * mdw-bench: host-time benchmark of the mdworm simulator on
 * fixed E-series scenarios, end to end and layer by layer.
 *
 * Usage:
 *   mdw_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *
 * Workloads (all CB-HW, multiple multicast, degree 8, 64-flit payload
 * on a 4-ary n-tree; see kScenarios for why each was chosen):
 *   contended64  64 hosts, load 0.05  (E1's contended point, flat)
 *   idle256      256 hosts, load 0.002 (E5's near-idle point, flat)
 *   scale1024    1024 hosts, load 0.01 (E14's 1024-host point, 4 shards)
 *
 * One invocation:
 *   1. derives kSubSeeds scenario seeds from --seed;
 *   2. for --seconds, simulates the scenario over those seeds round-
 *      robin, timing every phase (build, warmup, measure, drain,
 *      settle, teardown). Each run must drain, deliver every copy of
 *      every multicast, end quiescent, and reproduce the first run of
 *      its seed bit for bit;
 *   3. replays sub-seed 0 on the always-tick oracle scheduler (flat, no
 *      idle skipping), which must produce the identical result;
 *   4. with --trace 1, replays sub-seed 0 once more with the worm
 *      tracer on and counts its lifecycle events by kind.
 *
 * Host-time metrics are per-seed medians averaged over the sub-seeds
 * (the end-to-end ones scaled for host speed, see
 * kReferenceCalibrationMs); simulated counts are summed over the first run of every sub-seed
 * and so repeat exactly for a given --seed. The last stdout line is
 * one JSON object {correct, attempted, failed, metrics}; with
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set.
 */

#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.hh"
#include "core/presets.hh"
#include "sim/rng.hh"

namespace {

using namespace mdw;
using Clock = std::chrono::steady_clock;

/** One benchmark workload: a fixed E-series simulation point. */
struct Scenario
{
    const char *name;
    /** Fat-tree levels: 4^levels hosts. */
    int levels;
    /** Offered multicast load, payload flits/node/cycle. */
    double load;
    Cycle warmup;
    Cycle measure;
    /** Parallel shards (1 = flat fast path). */
    std::size_t shards;
    McastEncoding encoding;
};

/*
 * contended64: every switch has work almost every cycle, so the switch
 *   pipeline (decode, reservation, replication) dominates and the fast
 *   path has little to skip.
 * idle256: almost every component sleeps almost always; the cost is the
 *   scheduler's idle skipping and wake heap, and the switch pipeline is
 *   nearly bypassed. Long windows so enough multicasts are measured.
 * scale1024: the sharded scheduler -- parallel switch phase, boundary
 *   mailboxes, barriers, serial NIC phase -- on a fabric big enough for
 *   partitioning to matter, at the scale curve's light load and with
 *   its multiport headers (E14's settings).
 */
constexpr Scenario kScenarios[] = {
    {"contended64", 3, 0.05, 3000, 8000, 1, McastEncoding::BitString},
    {"idle256", 4, 0.002, 3000, 30000, 1, McastEncoding::BitString},
    {"scale1024", 5, 0.01, 300, 800, 4, McastEncoding::Multiport},
};

/**
 * Host speed calibration. On a shared virtual machine the same binary
 * runs up to ~50% slower for seconds to minutes at a time, as
 * neighbours load the shared caches and memory bus. Fixed calibration
 * kernels, run before and after every simulation, measure that drift;
 * each run's end-to-end host times are scaled by the mean of the two
 * measurements to a host on which the kernels take
 * kReferenceCalibrationMs (their typical time on the 4-vCPU Xeon VM
 * the benchmark was tuned on), so a run during a slow spell still
 * compares with one made earlier. Raw times stay in the per-layer set.
 */
constexpr double kReferenceCalibrationMs = 20.0;

constexpr std::size_t kSubSeeds = 8;
constexpr Cycle kDrainLimit = 200000;
constexpr Cycle kWatchdogQuiet = 200000;
/** Tracer ring for the event-count replay; harvested at half full,
 *  far more than one cycle of any scenario can record. */
constexpr std::uint32_t kTraceRing = 1u << 18;

enum class Mode
{
    Measured, ///< the scenario's own scheduler (fast path, maybe sharded)
    Oracle,   ///< always-tick flat scheduler
    Traced,   ///< flat fast path with the worm tracer on
};

/** Host wall time of each phase of one run, in milliseconds. */
struct Phases
{
    double build = 0.0;
    double warmup = 0.0;
    double measure = 0.0;
    double drain = 0.0;
    double settle = 0.0;
    double teardown = 0.0;
    /** Calibration kernels' mean time just before and after the run. */
    double calibration = 0.0;

    double simulate() const { return warmup + measure + drain; }

    /** @p ms as it would read on the reference-speed host. */
    double
    scaled(double ms) const
    {
        return ms * kReferenceCalibrationMs / calibration;
    }
};

/** Worm-tracer events of one run, indexed by the kind's underlying
 *  value (one slot per possible value, so new kinds need no change). */
using EventCounts = std::array<
    std::uint64_t,
    std::size_t{1} << (8 * sizeof(std::underlying_type_t<WormEvent>))>;

struct Run
{
    ExperimentResult result;
    Phases ms;
    /** Empty when every check passed. */
    std::string failure;
};

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

NetworkConfig
networkConfig(const Scenario &sc, std::uint64_t seed, Mode mode)
{
    NetworkConfig network = networkFor(Scheme::CbHw);
    network.fatTreeN = sc.levels;
    network.nic.encoding = sc.encoding;
    network.seed = Rng::streamSeed(seed, 1);
    network.fastPath = mode != Mode::Oracle;
    network.shards = mode == Mode::Measured ? sc.shards : 1;
    network.shardThreads = 1;
    network.telemetry.trace = mode == Mode::Traced;
    network.telemetry.traceCapacity = kTraceRing;
    return network;
}

WorkloadParams
trafficFor(const Scenario &sc, std::uint64_t seed)
{
    WorkloadParams traffic = defaultTraffic();
    traffic.load = sc.load;
    traffic.seed = Rng::streamSeed(seed, 2);
    traffic.stopCycle = sc.warmup + sc.measure;
    return traffic;
}

/** Move the tracer's held events into @p counts once the ring is
 *  half full (or always, with @p force). */
void
harvest(WormTracer &tracer, EventCounts &counts, bool force)
{
    if (!force && tracer.size() < kTraceRing / 2)
        return;
    if (tracer.dropped() != 0)
        fatal("mdw-bench: tracer ring overflowed between harvests");
    for (const WormTraceEvent &event : tracer.snapshot().events)
        ++counts[static_cast<std::size_t>(event.kind)];
    tracer.clear();
}

/**
 * Memory-bound calibration kernels: random increments over 16 MiB and
 * a sequential sum over 32 MiB. On the tuning host, in the simulator's
 * slow spells (which follow cache and memory contention from
 * neighbours) these two slowed by ~1.4x against the simulator's ~1.5x,
 * while a dependent pointer chase or pure arithmetic slowed by only
 * ~1.1x. Uses only the standard library, so no change to the simulator
 * moves it.
 */
class Calibration
{
  public:
    Calibration() : counters_(kCounterSize, 1), stream_(kStreamSize, 3) {}

    /** Run every kernel once; returns the wall time in ms. */
    double
    run()
    {
        const auto start = Clock::now();
        std::uint64_t acc = 0;
        for (int i = 0; i < 1000000; ++i)
            ++counters_[next() % kCounterSize];
        for (int round = 0; round < 3; ++round) {
            for (const std::uint64_t v : stream_)
                acc += v;
        }
        sink_ = acc;
        return msBetween(start, Clock::now());
    }

  private:
    static constexpr std::uint32_t kCounterSize = 1u << 22;
    static constexpr std::size_t kStreamSize = 1u << 22;

    std::uint64_t
    next()
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        return x_;
    }

    std::vector<std::uint32_t> counters_;
    std::vector<std::uint64_t> stream_;
    std::uint64_t x_ = 88172645463325252ull;
    volatile std::uint64_t sink_ = 0;
};

/**
 * Re-run this program once with address-space randomization off.
 * With it on, heap and stack placement move host time by several
 * percent between otherwise identical invocations. If the switch is
 * refused, the run continues randomized.
 */
void
pinAddressLayout(char **argv)
{
    const int current = personality(0xffffffff);
    if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0)
        return;
    if (personality(static_cast<unsigned long>(current) |
                    ADDR_NO_RANDOMIZE) == -1)
        return;
    execv(argv[0], argv);
}

/**
 * High-water resident memory of this process image, in MiB (VmHWM;
 * unlike getrusage's maxrss it starts afresh at exec, so the parent's
 * size does not leak in).
 */
double
peakResidentMb()
{
    FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        fatal("mdw-bench: cannot read /proc/self/status");
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    }
    std::fclose(status);
    if (kb <= 0)
        fatal("mdw-bench: no VmHWM in /proc/self/status");
    return static_cast<double>(kb) / 1024.0;
}

/** Invariants every run must satisfy; returns "" or the first
 *  violation. */
std::string
verify(const ExperimentResult &r, const std::string &quiescenceWhy,
       int degree)
{
    if (r.deadlocked)
        return "watchdog tripped";
    if (!r.drained)
        return "did not drain";
    if (!r.quiescent)
        return "not quiescent after drain: " + quiescenceWhy;
    const std::uint64_t posted = r.metrics.sumCounters("messages_posted");
    const std::uint64_t completed = r.metrics.counter("tracker.completed");
    const std::uint64_t copies = r.metrics.counter("tracker.deliveries");
    if (posted == 0)
        return "no messages posted";
    if (completed != posted)
        return "completed " + std::to_string(completed) + " of " +
               std::to_string(posted) + " posted messages";
    if (copies != posted * static_cast<std::uint64_t>(degree))
        return "delivered " + std::to_string(copies) + " copies, want " +
               std::to_string(posted * static_cast<std::uint64_t>(degree));
    if (r.metrics.counter("tracker.duplicate_deliveries") != 0 ||
        r.metrics.counter("tracker.partial_completed") != 0)
        return "duplicate or partial deliveries";
    if (r.mcastLastLatency().count() == 0)
        return "no multicast completed inside the measurement window";
    return "";
}

/** One complete simulation of @p sc, timed phase by phase. */
Run
runScenario(const Scenario &sc, std::uint64_t seed, Mode mode,
            EventCounts *counts)
{
    const WorkloadParams traffic = trafficFor(sc, seed);
    Run run;
    ExperimentResult &r = run.result;

    const auto t0 = Clock::now();
    auto net = std::make_unique<Network>(networkConfig(sc, seed, mode));
    const auto t1 = Clock::now();

    SyntheticTraffic source(net->numHosts(), traffic);
    net->attachWorkload(&source);
    net->tracker().setWindow(sc.warmup, sc.warmup + sc.measure);
    net->armWatchdog(kWatchdogQuiet);

    WormTracer *tracer = net->telemetry().tracer();
    auto harvestThen = [&](bool done) {
        harvest(*tracer, *counts, false);
        return done;
    };
    if (tracer == nullptr) {
        net->sim().run(sc.warmup);
    } else {
        net->sim().runUntil([&] { return harvestThen(false); }, sc.warmup);
    }
    const auto t2 = Clock::now();
    if (tracer == nullptr) {
        net->sim().run(sc.measure);
    } else {
        net->sim().runUntil([&] { return harvestThen(false); },
                            sc.measure);
    }
    const auto t3 = Clock::now();
    Network &n = *net;
    r.drained = tracer == nullptr
                    ? n.sim().runUntil([&n] { return n.idle(); },
                                       kDrainLimit)
                    : n.sim().runUntil(
                          [&] { return harvestThen(n.idle()); },
                          kDrainLimit);
    const auto t4 = Clock::now();

    r.deadlocked = n.sim().deadlockDetected();
    r.cyclesRun = n.sim().now();
    r.metrics = n.metricsSnapshot();
    if (tracer != nullptr)
        harvest(*tracer, *counts, true);

    std::string why;
    if (r.drained && !r.deadlocked) {
        n.sim().runUntil([&n] { return n.checkQuiescent(nullptr); }, 4096);
        r.quiescent = n.checkQuiescent(&why);
    } else {
        r.quiescent = false;
    }
    const auto t5 = Clock::now();

    net->detachWorkload();
    net.reset();
    const auto t6 = Clock::now();

    run.ms = {msBetween(t0, t1), msBetween(t1, t2), msBetween(t2, t3),
              msBetween(t3, t4), msBetween(t4, t5), msBetween(t5, t6)};
    run.failure = verify(r, why, traffic.mcastDegree);
    return run;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    }
    std::printf("}}\n");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mdw-bench: %s\nusage: mdw_bench --workload "
                 "<contended64|idle256|scale1024> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *text, const char *flag)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    pinAddressLayout(argv);

    const Scenario *sc = nullptr;
    std::optional<std::uint64_t> seed, seconds, trace;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        if (i + 1 >= argc)
            usage((std::string("missing value for ") + flag).c_str());
        const char *value = argv[++i];
        if (std::strcmp(flag, "--workload") == 0) {
            for (const Scenario &s : kScenarios) {
                if (std::strcmp(s.name, value) == 0)
                    sc = &s;
            }
            if (sc == nullptr)
                usage((std::string("unknown workload ") + value).c_str());
        } else if (std::strcmp(flag, "--seed") == 0) {
            seed = parseU64(value, flag);
        } else if (std::strcmp(flag, "--seconds") == 0) {
            seconds = parseU64(value, flag);
        } else if (std::strcmp(flag, "--trace") == 0) {
            trace = parseU64(value, flag);
        } else {
            usage((std::string("unknown flag ") + flag).c_str());
        }
    }
    if (sc == nullptr || !seed || !seconds || !trace || *trace > 1 ||
        *seconds == 0)
        usage("need --workload, --seed, --seconds >= 1, --trace 0|1");

    std::array<std::uint64_t, kSubSeeds> subSeeds{};
    for (std::size_t k = 0; k < kSubSeeds; ++k)
        subSeeds[k] = Rng::streamSeed(*seed, k);

    std::size_t attempted = 0, failed = 0;
    auto fail = [&failed](const char *what, std::size_t k,
                          const std::string &why) {
        ++failed;
        std::fprintf(stderr, "# FAIL %s (sub-seed %zu): %s\n", what, k,
                     why.c_str());
    };

    // Untimed first run: fills the allocator and caches, and is the
    // only point at which the process's peak memory is the
    // simulator's alone (the calibration buffers come after it).
    std::array<std::optional<ExperimentResult>, kSubSeeds> first;
    {
        Run warm = runScenario(*sc, subSeeds[0], Mode::Measured, nullptr);
        ++attempted;
        if (!warm.failure.empty())
            fail("run", 0, warm.failure);
        else
            first[0] = std::move(warm.result);
    }
    const double peakRssMb = peakResidentMb();

    // Timed loop: round-robin over the sub-seeds until the budget is
    // spent, at least one run per sub-seed. Each run sits between two
    // calibrations.
    std::array<std::vector<Phases>, kSubSeeds> phases;
    Calibration calibration;
    double calibrationBefore = calibration.run();
    const auto start = Clock::now();
    const auto budget = std::chrono::seconds(*seconds);
    for (std::size_t i = 0; i < kSubSeeds || Clock::now() - start < budget;
         ++i) {
        const std::size_t k = i % kSubSeeds;
        Run run = runScenario(*sc, subSeeds[k], Mode::Measured, nullptr);
        ++attempted;
        const double calibrationAfter = calibration.run();
        run.ms.calibration = 0.5 * (calibrationBefore + calibrationAfter);
        calibrationBefore = calibrationAfter;
        phases[k].push_back(run.ms);
        if (!run.failure.empty()) {
            fail("run", k, run.failure);
            continue;
        }
        if (!first[k]) {
            first[k] = std::move(run.result);
            continue;
        }
        if (!identicalResults(*first[k], run.result))
            fail("determinism", k, "repeat differs from first run");
    }

    // Oracle: the always-tick scheduler must reproduce sub-seed 0.
    {
        Run oracle = runScenario(*sc, subSeeds[0], Mode::Oracle, nullptr);
        ++attempted;
        if (!oracle.failure.empty())
            fail("oracle", 0, oracle.failure);
        else if (!first[0] || !identicalResults(*first[0], oracle.result))
            fail("oracle", 0, "fast path differs from always-tick oracle");
    }

    auto perSeedMean = [&phases](double (*pick)(const Phases &)) {
        double sum = 0.0;
        for (const std::vector<Phases> &runs : phases) {
            std::vector<double> values;
            for (const Phases &p : runs)
                values.push_back(pick(p));
            sum += median(values);
        }
        return sum / static_cast<double>(kSubSeeds);
    };
    auto firstSum = [&first](const char *name) {
        double sum = 0.0;
        for (const auto &r : first) {
            if (r)
                sum += static_cast<double>(r->metrics.counter(name));
        }
        return sum;
    };
    // Per-NIC counters ("nic.<id>.<name>") summed over all hosts.
    auto firstSumNics = [&first](const char *name) {
        double sum = 0.0;
        for (const auto &r : first) {
            if (r)
                sum += static_cast<double>(
                    r->metrics.sumCounters(std::string(".") + name));
        }
        return sum;
    };

    std::vector<Metric> metrics;
    if (*trace == 0) {
        Sampler mcastLast;
        for (const auto &r : first) {
            if (r)
                mcastLast.merge(r->mcastLastLatency());
        }
        metrics = {
            {"simulate_ms",
             perSeedMean([](const Phases &p) {
                 return p.scaled(p.simulate());
             }),
             "ms"},
            {"setup_s",
             perSeedMean([](const Phases &p) { return p.scaled(p.build); }) /
                 1e3,
             "s"},
            {"peak_rss_mb", peakRssMb, "MB"},
            {"mcast_latency_cycles", mcastLast.mean(), "cycles"},
        };
    } else {
        EventCounts counts{};
        Run traced = runScenario(*sc, subSeeds[0], Mode::Traced, &counts);
        ++attempted;
        if (!traced.failure.empty())
            fail("traced replay", 0, traced.failure);
        auto count = [&counts](WormEvent kind) {
            return static_cast<double>(counts[static_cast<std::size_t>(kind)]);
        };
        const double routed = static_cast<double>(
            traced.result.metrics.counter("network.packets_routed"));

        double cycles = 0.0;
        for (const auto &r : first) {
            if (r)
                cycles += static_cast<double>(r->cyclesRun);
        }
        const double flitHops = firstSum("network.flits_in");
        const double simulateMs =
            perSeedMean([](const Phases &p) { return p.simulate(); });
        metrics = {
            {"calibration_ms",
             perSeedMean([](const Phases &p) { return p.calibration; }),
             "ms"},
            {"build_ms", perSeedMean([](const Phases &p) { return p.build; }),
             "ms"},
            {"warmup_ms",
             perSeedMean([](const Phases &p) { return p.warmup; }), "ms"},
            {"measure_ms",
             perSeedMean([](const Phases &p) { return p.measure; }), "ms"},
            {"drain_ms", perSeedMean([](const Phases &p) { return p.drain; }),
             "ms"},
            {"settle_ms",
             perSeedMean([](const Phases &p) { return p.settle; }), "ms"},
            {"teardown_ms",
             perSeedMean([](const Phases &p) { return p.teardown; }), "ms"},
            {"host_ns_per_cycle",
             cycles > 0 ? simulateMs * 1e6 * kSubSeeds / cycles : 0.0,
             "ns"},
            {"host_ns_per_flit_hop",
             flitHops > 0 ? simulateMs * 1e6 * kSubSeeds / flitHops : 0.0,
             "ns"},
            {"sim_cycles", cycles, "count"},
            {"channel_flit_sends", firstSum("sim.channels.flit_sends"),
             "count"},
            {"switch_flit_hops", flitHops, "count"},
            {"switch_packets_routed", firstSum("network.packets_routed"),
             "count"},
            {"switch_replications", firstSum("network.replications"),
             "count"},
            {"switch_reservation_stall_cycles",
             firstSum("network.reservation_stall_cycles"), "count"},
            {"nic_packets_injected", firstSumNics("packets_injected"),
             "count"},
            {"nic_flits_injected", firstSumNics("flits_injected"),
             "count"},
            {"nic_packets_delivered", firstSumNics("packets_delivered"),
             "count"},
            {"tracker_messages_completed", firstSum("tracker.completed"),
             "count"},
            {"trace_header_decodes", count(WormEvent::HeaderDecode),
             "count"},
            {"trace_reserve_stalls", count(WormEvent::ReserveStall),
             "count"},
            {"trace_replicates", count(WormEvent::Replicate), "count"},
            {"trace_delivers", count(WormEvent::Deliver), "count"},
            {"decodes_per_route",
             routed > 0 ? count(WormEvent::HeaderDecode) / routed : 0.0,
             "ratio"},
        };
    }

    std::printf("# mdw-bench %s seed=%" PRIu64
                " runs=%zu failed=%zu calibration=%.3f ms "
                "raw simulate=%.3f ms\n",
                sc->name, *seed, attempted, failed,
                perSeedMean([](const Phases &p) { return p.calibration; }),
                perSeedMean([](const Phases &p) { return p.simulate(); }));
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
