/**
 * @file
 * Input-buffer-based switch architecture (paper Section 5).
 *
 * Storage is statically partitioned into one FIFO buffer per input
 * port, each large enough to hold the largest packet in the system.
 * A multidestination worm at the head of an input buffer decodes its
 * destination set into a set of required output ports and replicates
 * *asynchronously*: each requested output port is acquired
 * independently through round-robin arbitration, and each acquired
 * branch streams flits at its own pace; a blocked branch never blocks
 * the others. A buffer slot is recycled (and its credit returned
 * upstream) once every branch has forwarded the flit.
 *
 * Deadlock freedom follows the paper's rule: the upstream sender may
 * start transferring a multidestination worm only when the whole
 * packet is guaranteed to fit in this input buffer (whole-packet
 * credit reservation), so any blocked worm is eventually completely
 * buffered and releases its upstream path. Unicast traffic uses plain
 * cut-through with per-flit credits (up/down routing is acyclic).
 *
 * The price of this organization is head-of-line blocking: only the
 * packet at the head of each input FIFO can be routed.
 */

#ifndef MDW_SWITCH_INPUT_BUFFER_SWITCH_HH
#define MDW_SWITCH_INPUT_BUFFER_SWITCH_HH

#include <cstdio>

#include "switch/arbiter.hh"
#include "switch/switch_base.hh"

namespace mdw {

/** Parameters of the input-buffer architecture. */
struct IbParams
{
    /**
     * Flits of buffering per input port. Must be at least the largest
     * packet (header + payload) in the system; the network builder
     * validates this.
     */
    int bufferFlits = 288;
};

/** Input-buffered switch with asynchronous multicast replication. */
class InputBufferSwitch : public SwitchBase
{
  public:
    InputBufferSwitch(std::string name, SwitchId id,
                      const SwitchRouting *routing,
                      const SwitchParams &params,
                      const IbParams &ibParams);

    void step(Cycle now) override;

    Cycle nextWork(Cycle now) override;

    ReceivePolicy
    receivePolicy(PortId) const override
    {
        return ReceivePolicy{inputFlits_, true};
    }

    /** Print the full internal state (deadlock diagnosis). */
    void dumpState(FILE *out) const;

    bool quiescent(std::string *why) const override;

    void attachTelemetry(Telemetry &telemetry) override;

  private:
    /** One replication branch of the head packet of an input. */
    struct Branch
    {
        PortId port = kInvalidPort;
        PacketPtr pkt; // destination-pruned descriptor
        int sent = 0;
        bool granted = false;

        bool done() const { return sent >= pkt->totalFlits(); }
    };

    /**
     * Per-(input port, lane) head-packet state, laneIdx-flattened
     * like the base's input FIFOs (fifos_).
     */
    struct InputState
    {
        /** Head-packet flits already forwarded by every branch. */
        int released = 0;
        bool decoded = false;
        /** Output lane the head packet was allocated at decode; every
         *  replication branch streams on this lane (branch-consistent
         *  lane reservation). */
        int outLane = 0;
        /** Head packet still needs an up port to be granted. */
        bool upPending = false;
        std::vector<PortId> upCandidates;
        DestSet upDests{0};
        std::vector<Branch> branches;
    };

    /** Per-(output port, lane) binding, laneIdx-flattened. The bound
     *  input is a flattened (port, lane) index as well. */
    struct OutputState
    {
        int boundInput = -1;
        int boundBranch = -1;

        bool busy() const { return boundInput >= 0; }
    };

    void decodeHeads(Cycle now);
    /** Adaptive lane cost: required output (port, lane) slots busy. */
    int laneCost(const RouteDecision &route, int lane) const;
    void arbitrate();
    void transmit(Cycle now);
    /** Synchronous replication: all-or-nothing port acquisition. */
    void arbitrateSync();
    /** Synchronous replication: lock-step forwarding on all branches. */
    void transmitSync(Cycle now);
    void release(Cycle now);

    /** True when every branch of the head packet has its port. */
    static bool fullyGranted(const InputState &input);

    /** laneIdx-flattened: (port, lane) for ports 0..radix. */
    std::vector<InputState> inputs_;
    std::vector<OutputState> outputs_;
    std::vector<RoundRobinArbiter> outputArb_;
    RoundRobinArbiter syncArb_;
    /** Per-step scratch: inputs requesting one output (arbitrate) or
     *  waiting for all-or-nothing acquisition (arbitrateSync). */
    std::vector<int> requesters_;
    /** Per-input branch index behind its request (-2: adaptive up
     *  request); valid only for this step's requesters_. */
    std::vector<int> branchOf_;
    /** Per-step scratch: output ports one synchronous grant binds. */
    std::vector<PortId> needed_;
};

} // namespace mdw

#endif // MDW_SWITCH_INPUT_BUFFER_SWITCH_HH
