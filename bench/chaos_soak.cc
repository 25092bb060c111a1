/**
 * @file
 * Chaos soak: randomized transient + fail-stop fault campaigns.
 *
 * Each campaign draws a topology, a switch architecture, a multicast
 * scheme, and a fault cocktail (fail-stop links/switches, link BER
 * with residual errors, flap windows, tight or loose retry budgets),
 * runs traffic through it, and then holds the run to the integrity
 * contract:
 *
 *   - the network drains (no hang, no watchdog trip),
 *   - every message is accounted for: fully completed or explicitly
 *     partial — never lost, never silently corrupted,
 *   - pure-transient campaigns (no fail-stop, no escalation) recover
 *     *everything*: zero partial completions,
 *   - after the settle, Network::checkQuiescent() holds: every
 *     buffer empty, all credits home, no poisoned flit leaked into a
 *     queue.
 *
 * Exit status is the number of failed campaigns (0 = clean soak).
 * Every failure prints the campaign's knobs for one-line repro via
 * `campaigns=1 baseSeed=<seed+index>`.
 */

#include <cstdio>
#include <random>
#include <sstream>
#include <string>

#include "core/presets.hh"
#include "core/resilience.hh"
#include "sim/config.hh"
#include "workload/traffic.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;

    Config cli;
    cli.parseArgs(argc, argv);
    const int campaigns =
        static_cast<int>(cli.getInt("campaigns", 10));
    const std::uint64_t baseSeed = cli.getU64("baseSeed", 20260809u);
    const bool verbose = cli.getBool("verbose", false);

    int failures = 0;
    for (int c = 0; c < campaigns; ++c) {
        std::mt19937_64 rng(baseSeed + static_cast<std::uint64_t>(c));
        const auto pick = [&rng](int lo, int hi) {
            return lo + static_cast<int>(
                            rng() %
                            static_cast<std::uint64_t>(hi - lo + 1));
        };

        NetworkConfig net = defaultNetwork();
        std::ostringstream desc;
        if (pick(0, 3) == 0) {
            net.topo = TopologyKind::Irregular;
            net.irregular.switches = pick(0, 1) ? 8 : 12;
            net.irregular.radix = 6;
            net.irregular.hosts = 16;
            net.irregular.extraLinks = pick(4, 8);
            desc << "topo=irregular ";
        } else {
            net.fatTreeK = 4;
            net.fatTreeN = 2;
            desc << "topo=fat-tree ";
        }
        net.arch = pick(0, 1) ? SwitchArch::InputBuffer
                              : SwitchArch::CentralBuffer;
        net.nic.scheme =
            pick(0, 3) == 0 ? McastScheme::Software
                            : McastScheme::Hardware;
        desc << "arch=" << toString(net.arch)
             << " scheme="
             << (net.nic.scheme == McastScheme::Software ? "sw"
                                                         : "hw");

        // Fault cocktail: always at least one mechanism.
        net.faultSpec.seed = baseSeed + 31 * c;
        net.faultSpec.start = 200;
        net.faultSpec.end = 1500;
        const bool failStop = pick(0, 2) > 0;
        const bool withBer = pick(0, 2) > 0;
        const bool withFlaps = !failStop && !withBer ? true
                                                     : pick(0, 1) == 1;
        if (failStop) {
            net.faultSpec.links = pick(1, 2);
            net.faultSpec.switches = pick(0, 1);
        }
        if (withBer) {
            net.faultSpec.ber = pick(1, 8) * 1e-4;
            net.faultSpec.residual = pick(0, 1) ? 0.1 : 0.0;
        }
        if (withFlaps) {
            net.faultSpec.flaps = pick(1, 2);
            net.faultSpec.flapMin = 8;
            // Long windows exhaust tight retry budgets: some flap
            // campaigns escalate into fail-stops mid-run.
            net.faultSpec.flapMax = pick(0, 1) ? 64 : 2000;
            net.link.retryLimit = pick(0, 1) ? 4 : 16;
        }
        net.nic.retransmitTimeout =
            static_cast<Cycle>(pick(20, 30)) * 100;
        net.seed = baseSeed + 17 * c;
        desc << " links=" << net.faultSpec.links
             << " switches=" << net.faultSpec.switches
             << " ber=" << net.faultSpec.ber
             << " residual=" << net.faultSpec.residual
             << " flaps=" << net.faultSpec.flaps
             << " flapMax=" << net.faultSpec.flapMax
             << " retryLimit=" << net.link.retryLimit;

        Network network(net);
        WorkloadParams traffic;
        traffic.pattern = TrafficPattern::MultipleMulticast;
        traffic.load = 0.02 + 0.01 * pick(0, 8);
        traffic.payloadFlits = 8 << pick(0, 3);
        traffic.mcastDegree = pick(2, 6);
        traffic.seed = baseSeed + 7 * c + 1;
        traffic.stopCycle = 3000;
        SyntheticTraffic source(network.numHosts(), traffic);
        network.attachWorkload(&source);
        network.armWatchdog(100000);

        network.sim().run(3000);
        const bool drained = network.sim().runUntil(
            [&network] { return network.idle(); }, 800000);
        network.sim().runUntil(
            [&network] { return network.checkQuiescent(nullptr); },
            8192);

        std::string verdict;
        std::string why;
        const McastTracker &tracker = network.tracker();
        const ResilienceManager *res = network.resilience();
        const std::uint64_t escalations =
            res != nullptr ? res->linkEscalations() : 0;
        const std::size_t applied =
            res != nullptr ? res->faultsApplied() : 0;
        if (!drained) {
            verdict = "did not drain";
        } else if (network.sim().deadlockDetected()) {
            verdict = "watchdog tripped";
        } else if (tracker.inFlight() != 0) {
            verdict = "messages left in flight";
        } else if (tracker.totalCompleted() +
                       tracker.partialCompleted() !=
                   source.generated()) {
            verdict = "message accounting leak";
        } else if (applied == 0 && escalations == 0 &&
                   tracker.partialCompleted() != 0) {
            // Pure-transient campaign: link retry plus end-to-end
            // retransmission must recover every copy.
            verdict = "transient-only run completed partially";
        } else if (!network.checkQuiescent(&why)) {
            verdict = "not quiescent: " + why;
        }

        if (!verdict.empty()) {
            ++failures;
            std::printf("FAIL campaign %d (%s): %s\n", c,
                        desc.str().c_str(), verdict.c_str());
        } else if (verbose) {
            std::printf(
                "ok campaign %d (%s): %llu msgs, %zu faults, "
                "%llu escalations, %llu partial\n",
                c, desc.str().c_str(),
                static_cast<unsigned long long>(source.generated()),
                applied,
                static_cast<unsigned long long>(escalations),
                static_cast<unsigned long long>(
                    tracker.partialCompleted()));
        }
    }

    std::printf("chaos soak: %d/%d campaigns clean\n",
                campaigns - failures, campaigns);
    return failures;
}
