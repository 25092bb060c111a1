/**
 * @file
 * Canned configurations matching the paper's evaluated systems, plus
 * a string-config bridge for command-line overrides.
 */

#ifndef MDW_CORE_PRESETS_HH
#define MDW_CORE_PRESETS_HH

#include "core/experiment.hh"
#include "core/network.hh"
#include "sim/config.hh"

namespace mdw {

/** The three multicast implementations the paper compares. */
enum class Scheme
{
    /** Central-buffer switch with hardware multidestination worms. */
    CbHw,
    /** Input-buffer switch with hardware multidestination worms. */
    IbHw,
    /** Central-buffer switch with U-Min software multicast. */
    SwUmin,
};

const char *toString(Scheme scheme);

/** All three schemes, in the paper's presentation order. */
inline constexpr Scheme kAllSchemes[] = {Scheme::CbHw, Scheme::IbHw,
                                         Scheme::SwUmin};

/**
 * SP-Switch-flavored default system: 64-node 4-ary 3-tree, 8-port
 * switches, 128-chunk central buffer, 8-flit chunks, 100-cycle NIC
 * software overheads.
 */
NetworkConfig defaultNetwork();

/** Default network reconfigured for one of the paper's schemes. */
NetworkConfig networkFor(Scheme scheme);

/** Default workload: multiple multicast, degree 8, 64-flit payload. */
WorkloadParams defaultTraffic();

/** Default phase lengths for latency-vs-load experiments. */
ExperimentParams defaultExperiment();

/**
 * Apply string-config overrides (e.g. parsed from argv) to the three
 * parameter blocks. Recognized keys are documented in README.md;
 * unknown keys trigger fatal() so typos never silently no-op.
 */
void applyOverrides(const Config &config, NetworkConfig &network,
                    WorkloadParams &traffic, ExperimentParams &params);

} // namespace mdw

#endif // MDW_CORE_PRESETS_HH
