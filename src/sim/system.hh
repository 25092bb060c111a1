/**
 * @file
 * The cycle-driven simulation engine.
 */

#ifndef MDW_SIM_SYSTEM_HH
#define MDW_SIM_SYSTEM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "sim/boundary.hh"
#include "sim/component.hh"
#include "sim/event_queue.hh"
#include "sim/shard_context.hh"
#include "sim/types.hh"

namespace mdw {

/** Per-shard execution statistics (sharded scheduler only). */
struct ShardStat
{
    /** Components assigned to the shard. */
    std::size_t components = 0;
    /** Component step() calls executed by the shard. */
    std::uint64_t steps = 0;
    /** Items this shard pushed across boundary channels. */
    std::uint64_t boundarySends = 0;
    /**
     * Wall-clock nanoseconds spent executing the shard's parallel
     * phase (step + retire). Diagnostic only — identifies partition
     * imbalance; never feeds back into scheduling or results.
     */
    std::uint64_t wallNs = 0;
};

/**
 * Drives registered components one cycle at a time and fires due
 * events. Also hosts the global progress watchdog used to detect
 * deadlock (or livelock) during stress tests: components call
 * noteProgress() whenever they move a flit, and the watchdog trips if
 * there is pending work but no progress for a configurable number of
 * cycles.
 *
 * Two scheduling modes produce bit-identical results:
 *
 *  - Cycle path (default): every registered component is stepped on
 *    every cycle, unconditionally. This is the oracle.
 *  - Fast path (setFastPath(true)): components that report no work
 *    via Component::nextWork() are retired from the tick set and
 *    re-activated by a wake heap (self-scheduled wakes and
 *    requestWake() pushes from channels and peers). When the tick set
 *    is empty the clock jumps straight to the next activity --
 *    earliest wake, earliest event, run limit, or the cycle at which
 *    the watchdog would trip -- so idle stretches cost O(1) instead
 *    of O(components * cycles).
 *
 * The fast path runs every cycle as one barrier-synchronized sweep
 * over buckets of components. setSharding() splits the tick set into
 * parallel shards plus one serial bucket; unsharded, there are no
 * parallel shards and the serial bucket holds everything.
 *
 *  1. parallel step+retire phase: shard workers step their shard's
 *     active components (in registration order within the shard), then
 *     run the shard's retire pass. Only components whose step() touches
 *     nothing but its own state, its channels, the tracer, and
 *     noteProgress() may live in a parallel shard (the network puts
 *     switches there). Channels that cross a shard boundary run in
 *     boundary mode: sends are buffered into per-channel mailboxes.
 *  2. barrier: the main thread folds per-shard progress flags and
 *     drains the boundary mailboxes in deterministic (src-shard,
 *     dirty-registration) order. Because every channel imposes >= 1
 *     cycle of delay, nothing sent at cycle t is observable before
 *     t + 1, so the deferred queue pushes are invisible to results.
 *  3. serial step+retire phase: everything else (NICs, engines, test
 *     components) is stepped by the main thread in registration order
 *     -- exactly the order of the unsharded sweep, so tracker/workload
 *     hook sequences are reproduced verbatim -- then the serial bucket
 *     retires.
 *
 * The watchdog is then checked and the clock advances. A shard retires
 * before the barrier and the serial phase, yet anything those send it
 * arrives through a channel push or flush that requests a wake, so
 * results are bit-identical for any shard/thread count.
 *
 * Retire rule: each bucket's retire pass runs once every kRetireStride
 * cycles and keeps every component whose nextWork() falls within the
 * next stride; the rest leave the tick set and sleep on the wake heap.
 * A component may thus keep ticking up to kRetireStride cycles past its
 * last work, so activeCount() lags quiescence by that much.
 *
 * Equivalence rests on two component-contract facts: stepping an idle
 * component is a no-op, and nextWork() never under-reports (see
 * Component). Active components are stepped in registration order, so
 * trace event order within a cycle is preserved too.
 */
class Simulator : public BoundaryRegistrar
{
  public:
    Simulator();
    ~Simulator() override;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /**
     * Cycles between a bucket's retire passes, and the horizon within
     * which a component's next work keeps it ticking: anything due
     * before the next pass would come back through the wake heap
     * anyway, and an idle step is a no-op.
     */
    static constexpr Cycle kRetireStride = 8;

    /** Register a component (not owned). Components added after
     *  setSharding() land in the serial bucket. */
    void add(Component *component);

    /** Current cycle (the one currently being, or next to be, run). */
    Cycle now() const { return now_; }

    /** Timed-callback queue, fired at the start of each cycle. */
    EventQueue &events() { return events_; }

    /**
     * Select the scheduling mode. Enabling the fast path (re)activates
     * every component; disabling it reverts to stepping everything
     * (and dissolves any sharding).
     */
    void setFastPath(bool on);

    /** True if the idle-skipping fast path is active. */
    bool fastPath() const { return fastPath_; }

    /**
     * Partition the components into @p parallelShards parallel shards
     * plus one serial bucket, stepped by @p threads threads (0 = one
     * per hardware thread; 1 = inline; results are identical either
     * way). @p shardOf maps every registration index to its shard,
     * with @p parallelShards meaning "serial bucket". Requires the
     * fast path. Call before running.
     */
    void setSharding(std::vector<std::uint32_t> shardOf,
                     std::size_t parallelShards, unsigned threads);

    /** Revert to the unsharded fast path. */
    void clearSharding();

    /** Parallel shards in use (0 when unsharded). */
    std::size_t shards() const { return buckets_.size() - 1; }

    /** Per-shard execution statistics (empty when unsharded);
     *  entry [shards()] is the serial bucket. */
    std::vector<ShardStat> shardStats() const;

    /**
     * Schedule @p component to be stepped at cycle @p when (clamped to
     * the current cycle). Ignored on the cycle path, where everything
     * is stepped anyway. Called via Component::requestWake().
     */
    void wake(Component *component, Cycle when);

    /** Components stepped every cycle right now (fast path only). */
    std::size_t activeCount() const;

    /** Execute exactly one cycle. */
    void stepOne();

    /** Execute @p cycles cycles. */
    void run(Cycle cycles);

    /**
     * Run until @p done returns true (checked once per cycle) or
     * @p maxCycles elapse. Returns true if @p done became true.
     */
    bool runUntil(const std::function<bool()> &done, Cycle maxCycles);

    /** Components report flit movement here. */
    void
    noteProgress()
    {
        const int shard = shardctx::current;
        if (shard >= 0)
            buckets_[static_cast<std::size_t>(shard)].progress = 1;
        else
            lastProgress_ = now_;
    }

    /**
     * Arm the deadlock watchdog.
     * @param quietLimit Trip after this many progress-free cycles.
     * @param hasWork Returns true while packets are in flight.
     * @param onTrip Called when the watchdog fires; if empty, panic().
     */
    void setWatchdog(Cycle quietLimit, std::function<bool()> hasWork,
                     std::function<void()> onTrip = nullptr);

    /** True if the watchdog has fired. */
    bool deadlockDetected() const { return deadlocked_; }

    std::size_t componentCount() const { return components_.size(); }

    // BoundaryRegistrar: a boundary channel's first buffered send of
    // the current dirty episode (sending shard's thread).
    void boundaryDirty(std::uint32_t srcShard,
                       BoundaryChannel channel) override;

  private:
    void checkWatchdog();

    /** Move pending wakes due at now_ into the tick set. */
    void wakeDue(std::size_t bucket);
    /** Insert component @p idx into its bucket's tick set (sorted). */
    void activate(std::size_t idx);
    /** Retire pass (see the retire rule in the class comment). */
    void retireIdle(std::size_t bucket);
    /** Step one bucket's active components in registration order. */
    void stepBucket(std::size_t bucket);
    /** Barrier (main thread): fold the shards' progress flags and
     *  drain every dirty boundary mailbox. */
    void flushBoundaries();
    /**
     * First cycle in [now_, limit] at which anything can happen, or
     * now_ when the tick set is non-empty (no skipping possible).
     */
    Cycle nextActivity(Cycle limit) const;

    /** Step and retire every parallel shard; the caller is thread 0. */
    void runParallelPhase();
    /** Thread t's shards: t, t + threads, t + 2 * threads, ... */
    void runShards(unsigned t, unsigned threads);
    /** Worker t; @p seen is the phase current at its start. */
    void workerLoop(unsigned t, unsigned threads, std::uint64_t seen);
    void runShardTask(std::size_t shard);
    void startPool(unsigned threads);
    void stopPool();

    std::vector<Component *> components_;
    EventQueue events_;
    Cycle now_ = 0;
    Cycle lastProgress_ = 0;

    Cycle watchdogQuiet_ = 0;
    std::function<bool()> watchdogHasWork_;
    std::function<void()> watchdogOnTrip_;
    bool deadlocked_ = false;

    // --- fast-path state ---
    struct Wake
    {
        Cycle when;
        std::size_t idx;
        bool operator>(const Wake &o) const { return when > o.when; }
    };

    /**
     * One schedulable partition of the components. Buckets [0, shards)
     * are the parallel shards and the last bucket is the serial one
     * (unsharded, the only bucket, holding everything), each on its
     * own cache lines: a shard's thread writes its bucket every step.
     */
    struct alignas(64) Bucket
    {
        /** Sorted indices of components stepped every cycle. */
        std::vector<std::size_t> runList;
        /** Min-heap of pending wake-ups for sleeping components. */
        std::vector<Wake> wakeHeap;
        /** Traversal cursor into runList while stepping a cycle. */
        std::size_t cursor = 0;
        /** Next cycle this bucket's retire pass runs. */
        Cycle retireAt = 0;
        /** True while inside the per-cycle step traversal. */
        bool stepping = false;
        /** Components assigned to this bucket. */
        std::size_t size = 0;
        /** step() calls executed. */
        std::uint64_t steps = 0;
        /** Items flushed from this bucket's boundary channels. */
        std::uint64_t boundarySends = 0;
        /** Wall nanoseconds spent in this bucket's parallel phase. */
        std::uint64_t wallNs = 0;
        /** Channels with buffered sends awaiting the barrier flush. */
        std::vector<BoundaryChannel> dirty;
        /** Shard progress this cycle, folded in at the barrier. */
        char progress = 0;
    };

    bool fastPath_ = false;
    std::vector<Bucket> buckets_;
    /** Bucket of each component (all 0 when unsharded). */
    std::vector<std::uint32_t> bucketOf_;
    /** Earliest enqueued wake per component (dedup for wakeHeap). */
    std::vector<Cycle> wakeAt_;

    // --- worker threads 1 .. T - 1 (sharded mode with T > 1) ---
    std::vector<std::thread> pool_;
    /** Bumped to start each parallel phase, and once to stop. */
    std::atomic<std::uint64_t> phase_{0};
    /** Workers still stepping the current phase's shards. */
    std::atomic<unsigned> busy_{0};
    bool poolExit_ = false;
};

} // namespace mdw

#endif // MDW_SIM_SYSTEM_HH
