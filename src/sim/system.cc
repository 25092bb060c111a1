#include "sim/system.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "sim/logging.hh"

namespace mdw {

namespace shardctx {
thread_local int current = -1;
} // namespace shardctx

namespace {

/** Yields before a waiting thread parks. A yield, unlike a spin,
 *  hands the core over on an oversubscribed host. */
constexpr int kYieldsBeforePark = 2000;

/** Wait until @p ready holds for @p value; returns that value. */
template <typename T, typename Ready>
T
await(const std::atomic<T> &value, Ready ready)
{
    T v;
    for (int i = 0; !ready(v = value.load(std::memory_order_acquire));
         ++i) {
        if (i < kYieldsBeforePark)
            std::this_thread::yield();
        else
            value.wait(v, std::memory_order_acquire);
    }
    return v;
}

} // namespace

void
Component::requestWakeSlow(Cycle when)
{
    if (sim_ != nullptr)
        sim_->wake(this, when);
}

Simulator::Simulator()
{
    buckets_.emplace_back();
}

Simulator::~Simulator()
{
    stopPool();
}

void
Simulator::add(Component *component)
{
    MDW_ASSERT(component != nullptr, "registering null component");
    MDW_ASSERT(!buckets_[0].stepping,
               "registering a component mid-cycle");
    component->attach(this);
    component->simIndex_ = components_.size();
    component->schedActive_ = 1;
    components_.push_back(component);
    wakeAt_.push_back(kNoCycle);
    // Late registrations (engines, test components) go to the serial
    // bucket: only the network's construction-time partition may put
    // a component in a parallel shard.
    const auto bucket = static_cast<std::uint32_t>(buckets_.size() - 1);
    bucketOf_.push_back(bucket);
    ++buckets_[bucket].size;
    if (fastPath_)
        buckets_[bucket].runList.push_back(component->simIndex_);
}

void
Simulator::setFastPath(bool on)
{
    stopPool();
    fastPath_ = on;
    buckets_.clear();
    buckets_.emplace_back();
    Bucket &bucket = buckets_[0];
    bucket.size = components_.size();
    bucketOf_.assign(components_.size(), 0);
    std::fill(wakeAt_.begin(), wakeAt_.end(), kNoCycle);
    for (Component *c : components_)
        c->schedActive_ = 1;
    if (fastPath_) {
        bucket.runList.reserve(components_.size());
        for (std::size_t i = 0; i < components_.size(); ++i)
            bucket.runList.push_back(i);
    }
}

void
Simulator::setSharding(std::vector<std::uint32_t> shardOf,
                       std::size_t parallelShards, unsigned threads)
{
    MDW_ASSERT(fastPath_,
               "sharding requires the idle-skipping fast path");
    MDW_ASSERT(shardOf.size() == components_.size(),
               "shard map covers %zu of %zu components",
               shardOf.size(), components_.size());
    MDW_ASSERT(parallelShards >= 1, "need at least one shard");
    stopPool();
    bucketOf_ = std::move(shardOf);
    buckets_.clear();
    buckets_.resize(parallelShards + 1);
    std::fill(wakeAt_.begin(), wakeAt_.end(), kNoCycle);
    for (std::size_t i = 0; i < components_.size(); ++i) {
        const std::uint32_t bucket = bucketOf_[i];
        MDW_ASSERT(bucket <= parallelShards,
                   "component %zu mapped to shard %u of %zu", i,
                   bucket, parallelShards);
        components_[i]->schedActive_ = 1;
        ++buckets_[bucket].size;
        buckets_[bucket].runList.push_back(i);
    }
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    startPool(std::min<unsigned>(
        threads, static_cast<unsigned>(parallelShards)));
}

void
Simulator::clearSharding()
{
    if (shards() > 0)
        setFastPath(fastPath_);
}

std::vector<ShardStat>
Simulator::shardStats() const
{
    std::vector<ShardStat> stats;
    if (shards() == 0)
        return stats;
    stats.reserve(buckets_.size());
    for (const Bucket &bucket : buckets_) {
        ShardStat s;
        s.components = bucket.size;
        s.steps = bucket.steps;
        s.boundarySends = bucket.boundarySends;
        s.wallNs = bucket.wallNs;
        stats.push_back(s);
    }
    return stats;
}

void
Simulator::wake(Component *component, Cycle when)
{
    if (!fastPath_)
        return;
    const std::size_t idx = component->simIndex_;
    MDW_ASSERT(idx < components_.size() &&
                   components_[idx] == component,
               "wake for component not registered here");
    // During the parallel phase a shard may only wake its own
    // components (cross-shard sends defer their wakes to the
    // boundary flush).
    MDW_ASSERT(shardctx::current < 0 ||
                   bucketOf_[idx] == static_cast<std::uint32_t>(
                                         shardctx::current),
               "cross-shard wake of %s during the parallel phase",
               component->name().c_str());
    if (component->schedActive_) {
        // Already ticking; the retire pass re-evaluates nextWork()
        // before dropping it, which subsumes this wake (and an
        // immediate activate() would be a no-op anyway).
        return;
    }
    if (when <= now_) {
        // Due immediately: join the tick set for this very cycle (or
        // the next one if the traversal already passed this index --
        // which matches when the cycle path would have seen the
        // freshly-posted state).
        activate(idx);
        return;
    }
    if (when < wakeAt_[idx]) {
        wakeAt_[idx] = when;
        Bucket &bucket = buckets_[bucketOf_[idx]];
        bucket.wakeHeap.push_back(Wake{when, idx});
        std::push_heap(bucket.wakeHeap.begin(), bucket.wakeHeap.end(),
                       std::greater<Wake>());
    }
}

void
Simulator::activate(std::size_t idx)
{
    Component *component = components_[idx];
    if (component->schedActive_)
        return;
    component->schedActive_ = 1;
    Bucket &bucket = buckets_[bucketOf_[idx]];
    const auto it = std::lower_bound(bucket.runList.begin(),
                                     bucket.runList.end(), idx);
    const auto pos =
        static_cast<std::size_t>(it - bucket.runList.begin());
    bucket.runList.insert(it, idx);
    // If the traversal already passed the insertion point, this
    // component is stepped starting next cycle; bump the cursor so the
    // in-flight traversal is not perturbed.
    if (bucket.stepping && pos < bucket.cursor)
        ++bucket.cursor;
}

void
Simulator::wakeDue(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    while (!bucket.wakeHeap.empty() &&
           bucket.wakeHeap.front().when <= now_) {
        const Wake wake = bucket.wakeHeap.front();
        std::pop_heap(bucket.wakeHeap.begin(), bucket.wakeHeap.end(),
                      std::greater<Wake>());
        bucket.wakeHeap.pop_back();
        if (wakeAt_[wake.idx] == wake.when)
            wakeAt_[wake.idx] = kNoCycle;
        // Stale entries cause at worst a spurious no-op step.
        activate(wake.idx);
    }
}

void
Simulator::retireIdle(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    if (now_ < bucket.retireAt)
        return;
    bucket.retireAt = now_ + kRetireStride;
    std::size_t keep = 0;
    for (std::size_t r = 0; r < bucket.runList.size(); ++r) {
        const std::size_t idx = bucket.runList[r];
        const Cycle nw = components_[idx]->nextWork(now_);
        if (nw <= now_ + kRetireStride) {
            bucket.runList[keep++] = idx;
            continue;
        }
        components_[idx]->schedActive_ = 0;
        if (nw != kNoCycle && nw < wakeAt_[idx]) {
            wakeAt_[idx] = nw;
            bucket.wakeHeap.push_back(Wake{nw, idx});
            std::push_heap(bucket.wakeHeap.begin(),
                           bucket.wakeHeap.end(),
                           std::greater<Wake>());
        }
    }
    bucket.runList.resize(keep);
}

void
Simulator::stepBucket(std::size_t b)
{
    Bucket &bucket = buckets_[b];
    bucket.stepping = true;
    bucket.cursor = 0;
    while (bucket.cursor < bucket.runList.size()) {
        Component *c = components_[bucket.runList[bucket.cursor]];
        ++bucket.cursor;
        c->step(now_);
        ++bucket.steps;
    }
    bucket.stepping = false;
}

void
Simulator::boundaryDirty(std::uint32_t srcShard,
                         BoundaryChannel *channel)
{
    MDW_ASSERT(srcShard < buckets_.size(),
               "boundary channel on unknown shard %u", srcShard);
    buckets_[srcShard].dirty.push_back(channel);
}

void
Simulator::flushBoundaries()
{
    // Deterministic drain order: shards in index order, channels in
    // the order they went dirty (each shard steps sequentially, so
    // that order is itself deterministic), items in send order.
    // Results do not depend on this order -- every mailbox feeds its
    // own channel queue and the wake requests commute -- but a fixed
    // order keeps internal heap layouts reproducible too.
    for (Bucket &bucket : buckets_) {
        if (bucket.progress) {
            bucket.progress = 0;
            lastProgress_ = now_;
        }
        for (BoundaryChannel *ch : bucket.dirty)
            bucket.boundarySends +=
                static_cast<std::uint64_t>(ch->flushBoundary());
        bucket.dirty.clear();
    }
}

void
Simulator::runShardTask(std::size_t shard)
{
    const auto start = std::chrono::steady_clock::now();
    shardctx::current = static_cast<int>(shard);
    stepBucket(shard);
    retireIdle(shard);
    shardctx::current = -1;
    buckets_[shard].wallNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

void
Simulator::runShards(unsigned t, unsigned threads)
{
    for (std::size_t s = t; s + 1 < buckets_.size(); s += threads)
        runShardTask(s);
}

void
Simulator::runParallelPhase()
{
    // With no workers busy_ stays 0: the inline shard loop.
    const auto threads = static_cast<unsigned>(pool_.size() + 1);
    if (threads > 1) {
        busy_.store(threads - 1, std::memory_order_relaxed);
        phase_.fetch_add(1, std::memory_order_release);
        phase_.notify_all();
    }
    runShards(0, threads);
    await(busy_, [](unsigned n) { return n == 0; });
}

void
Simulator::workerLoop(unsigned t, unsigned threads, std::uint64_t seen)
{
    for (;;) {
        seen = await(phase_, [seen](std::uint64_t p) { return p != seen; });
        if (poolExit_)
            return;
        runShards(t, threads);
        if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1)
            busy_.notify_one();
    }
}

void
Simulator::startPool(unsigned threads)
{
    // From the current phase: a restarted pool must not rerun one.
    const std::uint64_t seen = phase_.load(std::memory_order_relaxed);
    pool_.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool_.emplace_back(
            [this, t, threads, seen] { workerLoop(t, threads, seen); });
}

void
Simulator::stopPool()
{
    if (pool_.empty())
        return;
    poolExit_ = true;
    phase_.fetch_add(1, std::memory_order_release);
    phase_.notify_all();
    for (std::thread &t : pool_)
        t.join();
    pool_.clear();
    poolExit_ = false;
}

void
Simulator::stepOne()
{
    if (!fastPath_) {
        events_.runDue(now_);
        for (Component *c : components_)
            c->step(now_);
        checkWatchdog();
        ++now_;
        return;
    }
    const std::size_t serial = buckets_.size() - 1;
    for (std::size_t b = 0; b < buckets_.size(); ++b)
        wakeDue(b);
    events_.runDue(now_);
    runParallelPhase();
    flushBoundaries();
    stepBucket(serial);
    retireIdle(serial);
    checkWatchdog();
    ++now_;
}

std::size_t
Simulator::activeCount() const
{
    std::size_t total = 0;
    for (const Bucket &bucket : buckets_)
        total += bucket.runList.size();
    return total;
}

Cycle
Simulator::nextActivity(Cycle limit) const
{
    if (!fastPath_)
        return now_;
    Cycle target = limit;
    for (const Bucket &bucket : buckets_) {
        if (!bucket.runList.empty())
            return now_;
        if (!bucket.wakeHeap.empty() &&
            bucket.wakeHeap.front().when < target)
            target = bucket.wakeHeap.front().when;
    }
    const Cycle event = events_.nextEventCycle();
    if (event < target)
        target = event;
    if (watchdogQuiet_ > 0 && !deadlocked_ && watchdogHasWork_ &&
        watchdogHasWork_()) {
        // No component will mutate state before `target`, so hasWork
        // stays true across the whole gap: the watchdog must get its
        // chance to trip at exactly the cycle the cycle path would.
        const Cycle trip = lastProgress_ + watchdogQuiet_;
        if (trip < target)
            target = trip;
    }
    return target < now_ ? now_ : target;
}

void
Simulator::run(Cycle cycles)
{
    const Cycle limit = now_ + cycles;
    while (now_ < limit && !deadlocked_) {
        now_ = nextActivity(limit);
        if (now_ >= limit)
            break;
        stepOne();
    }
    // The cycle path leaves now_ == limit; keep that invariant when
    // the final skip overshoots nothing (nextActivity never exceeds
    // limit, so this only rounds up the empty tail).
    if (!deadlocked_ && now_ < limit)
        now_ = limit;
}

bool
Simulator::runUntil(const std::function<bool()> &done, Cycle maxCycles)
{
    const Cycle limit = now_ + maxCycles;
    while (now_ < limit && !deadlocked_) {
        if (done())
            return true;
        now_ = nextActivity(limit);
        if (now_ >= limit)
            break;
        stepOne();
    }
    return done();
}

void
Simulator::setWatchdog(Cycle quietLimit, std::function<bool()> hasWork,
                       std::function<void()> onTrip)
{
    watchdogQuiet_ = quietLimit;
    watchdogHasWork_ = std::move(hasWork);
    watchdogOnTrip_ = std::move(onTrip);
    lastProgress_ = now_;
}

void
Simulator::checkWatchdog()
{
    if (watchdogQuiet_ == 0 || deadlocked_)
        return;
    if (now_ - lastProgress_ < watchdogQuiet_)
        return;
    if (!watchdogHasWork_ || !watchdogHasWork_())
        return;
    deadlocked_ = true;
    if (watchdogOnTrip_) {
        watchdogOnTrip_();
    } else {
        panic("watchdog: no progress for %llu cycles at cycle %llu "
              "with work pending",
              static_cast<unsigned long long>(watchdogQuiet_),
              static_cast<unsigned long long>(now_));
    }
}

} // namespace mdw
