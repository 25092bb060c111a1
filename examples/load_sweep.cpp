/**
 * @file
 * Parallel load sweep: run the default multiple-multicast workload
 * across a grid of offered loads on a pool of worker threads, then
 * print the latency curve and the sweep's audit report. The numbers
 * are identical at any thread count — try it:
 *
 *   ./load_sweep threads=1 > a.txt
 *   ./load_sweep threads=8 > b.txt
 *   diff a.txt b.txt            # empty
 *
 * Other knobs: baseSeed=N derives an isolated RNG stream per run
 * from one base seed; all the usual key=value overrides apply.
 */

#include <cstdio>

#include "core/presets.hh"
#include "core/sweep.hh"

int
main(int argc, char **argv)
{
    using namespace mdw;

    Config cli;
    cli.parseArgs(argc, argv);
    SweepOptions options;
    options.threads = static_cast<int>(cli.getInt("threads", 0));
    options.deriveSeeds = cli.has("baseSeed");
    options.baseSeed = cli.getU64("baseSeed", 0);

    NetworkConfig netcfg = defaultNetwork();
    WorkloadParams traffic = defaultTraffic();
    ExperimentParams expcfg = defaultExperiment();
    expcfg.warmup = 3000;
    expcfg.measure = 8000;
    expcfg.drainLimit = 60000;
    applyOverrides(cli, netcfg, traffic, expcfg);

    const double loads[] = {0.01, 0.02, 0.04, 0.08, 0.12, 0.16};
    SweepRunner runner(options);
    for (double load : loads) {
        WorkloadParams t = traffic;
        t.load = load;
        char label[32];
        std::snprintf(label, sizeof(label), "load=%.2f", load);
        runner.add(label, netcfg, t, expcfg);
    }
    runner.run();

    std::printf("%s\n", resultHeader().c_str());
    for (std::size_t i = 0; i < runner.size(); ++i) {
        const ExperimentResult &r = runner.results()[i];
        std::printf("%s\n",
                    formatResultRow(runner.report().runs[i].label, r)
                        .c_str());
    }
    // Wall times vary run to run, so the audit trail goes to stderr
    // — stdout stays diffable across thread counts.
    std::fputs(runner.report().summary().c_str(), stderr);
    return 0;
}
