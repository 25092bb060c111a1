/**
 * @file
 * Delay-stamped point-to-point channels.
 *
 * All communication between simulated components flows through
 * channels with a minimum delay of one cycle. An item sent at cycle t
 * becomes visible to the receiver at cycle t + delay, which makes the
 * per-cycle component step order irrelevant to simulation results.
 *
 * A data Channel models a physical link: at most one item (flit) may
 * be sent per cycle. A CreditChannel carries flow-control credits in
 * the reverse direction and may batch several credits per cycle.
 *
 * Channels carry no name: a Network holds tens of thousands of them
 * in two contiguous arrays and renders a channel's diagnostic name
 * from the wiring only when a report needs it.
 */

#ifndef MDW_SIM_CHANNEL_HH
#define MDW_SIM_CHANNEL_HH

#include <span>
#include <utility>
#include <vector>

#include "sim/boundary.hh"
#include "sim/component.hh"
#include "sim/logging.hh"
#include "sim/ring.hh"
#include "sim/slot_mask.hh"
#include "sim/types.hh"

namespace mdw {

/**
 * Optional per-channel link-layer hook (transient-fault subsystem).
 *
 * When attached, send() consults the hook to resolve the item's
 * *final* arrival cycle — the hook may model corruption, NAK/replay
 * rounds and flap outages by returning a later cycle (or kNoCycle to
 * drop the item on a dead link) — and receive() lets it verify the
 * delivered item. Arrivals must stay monotone so the channel remains
 * a FIFO; the default (no hook) path is byte-identical to a plain
 * fixed-delay channel.
 */
template <typename T>
class ChannelHook
{
  public:
    virtual ~ChannelHook() = default;

    /**
     * Resolve the final arrival cycle of @p item sent at @p now.
     * May mutate the item (stamp sequence numbers / CRCs). Returns
     * kNoCycle to drop the item instead of delivering it.
     */
    virtual Cycle onSend(T &item, Cycle now) = 0;

    /** Called when the receiver takes delivery of @p item. */
    virtual void onReceive(const T &item) = 0;
};

/**
 * One-item-per-cycle unidirectional link with fixed delay.
 *
 * When the sending component lives in a parallel shard and the
 * receiver does not (sharded scheduler), the channel is switched into
 * *boundary mode*: send() appends to a channel-local mailbox owned by
 * the sending shard's thread and the simulator moves the mailbox into
 * the receiver-visible queue at the cycle barrier. Because delay >= 1,
 * an item sent at cycle t is never observable at t, so the deferred
 * push is invisible to results.
 */
template <typename T>
class Channel : public BoundaryChannel
{
  public:
    /** @param delay Cycles between send and earliest receive (>= 1). */
    explicit Channel(Cycle delay = 1) : delay_(delay)
    {
        MDW_ASSERT(delay_ >= 1, "channel: delay must be >= 1");
    }

    /** Send one item; at most one send per cycle is legal. */
    void
    send(T item, Cycle now)
    {
        MDW_ASSERT(lastSend_ != now, "channel: two sends in cycle %llu",
                   static_cast<unsigned long long>(now));
        lastSend_ = now;
        ++totalSends_;
        Cycle arrival = now + delay_;
        if (hook_ != nullptr) {
            arrival = hook_->onSend(item, now);
            if (arrival == kNoCycle)
                return; // dropped on a dead/escalated link
            MDW_ASSERT(arrival >= now + delay_,
                       "channel: hook arrival before wire delay");
            MDW_ASSERT(queue_.empty() ||
                           arrival >= queue_.back().ready,
                       "channel: hook broke FIFO arrival order");
        }
        if (registrar_ != nullptr) {
            pending_.push_back(Entry{arrival, std::move(item)});
            if (!dirty_) {
                dirty_ = true;
                registrar_->boundaryDirty(srcShard_, this);
            }
            return;
        }
        queue_.push_back(Entry{arrival, std::move(item)});
        noteArrival(arrival);
    }

    /**
     * Switch the channel into boundary mode (see class comment);
     * @p srcShard is the sending component's shard. Pass null to
     * revert to direct delivery. Incompatible with a link-layer hook.
     */
    void
    setBoundary(BoundaryRegistrar *registrar, std::uint32_t srcShard)
    {
        MDW_ASSERT(registrar == nullptr || hook_ == nullptr,
                   "channel: boundary mode with a link hook");
        MDW_ASSERT(pending_.empty(),
                   "channel: mode change with buffered sends");
        registrar_ = registrar;
        srcShard_ = srcShard;
    }

    // BoundaryChannel: barrier drain (main thread; the sending shard
    // finished its phase, so pending_ is quiescent).
    std::size_t
    flushBoundary() override
    {
        const std::size_t moved = pending_.size();
        dirty_ = false;
        if (moved == 0)
            return 0;
        // One wake at the earliest arrival suffices: once awake, the
        // sink's nextWork() accounts for every queued arrival.
        const Cycle first = pending_.front().ready;
        for (Entry &entry : pending_)
            queue_.push_back(std::move(entry));
        pending_.clear();
        noteArrival(first);
        return moved;
    }

    /**
     * Attach a link-layer hook (transient-fault subsystem); null
     * detaches. The channel does not own the hook.
     */
    void
    setHook(ChannelHook<T> *hook)
    {
        MDW_ASSERT(hook == nullptr || registrar_ == nullptr,
                   "channel: link hook in boundary mode");
        hook_ = hook;
    }
    ChannelHook<T> *hook() const { return hook_; }

    /**
     * Register the receiving component so sends wake it if it is
     * sleeping when the item lands (fast path only).
     */
    void setWakeSink(Component *sink) { sink_ = sink; }

    /**
     * Register the receiver's activity state for this channel: every
     * arrival pushed into the receiver-visible queue lowers @p *bound
     * (a lower bound on nextArrival()) to it and sets bit @p slot of
     * @p live, in the same thread and phase as the wake push. The
     * receiver clears the bit when it finds the channel empty.
     */
    void
    setArrivalHint(Cycle *bound, SlotMask &live, std::size_t slot)
    {
        hint_ = bound;
        liveWord_ = live.word(slot);
        liveBit_ = static_cast<std::uint8_t>(slot & 63);
    }

    /** Cycle the oldest in-flight item arrives, or kNoCycle. */
    Cycle
    nextArrival() const
    {
        // Constant delay keeps the queue ready-ordered, so front() is
        // the earliest arrival.
        return queue_.empty() ? kNoCycle : queue_.front().ready;
    }

    /** True if send() was already called this cycle. */
    bool busy(Cycle now) const { return lastSend_ == now; }

    /** Pointer to the oldest item that has arrived, or nullptr. */
    const T *
    peek(Cycle now) const
    {
        if (queue_.empty() || queue_.front().ready > now)
            return nullptr;
        return &queue_.front().item;
    }

    /** Remove and return the oldest arrived item (must exist). */
    T
    receive(Cycle now)
    {
        MDW_ASSERT(peek(now) != nullptr,
                   "channel: receive with nothing arrived");
        T item = std::move(queue_.front().item);
        queue_.pop_front();
        if (hook_ != nullptr)
            hook_->onReceive(item);
        return item;
    }

    /** Number of items in flight (sent, not yet received). */
    std::size_t
    inFlight() const
    {
        return queue_.size() + pending_.size();
    }

    /** Items ever sent over the channel's lifetime. */
    std::uint64_t totalSends() const { return totalSends_; }

    /** Channel delay in cycles. */
    Cycle delay() const { return delay_; }

  private:
    struct Entry
    {
        Cycle ready;
        T item;
    };

    /** An item arriving at @p arrival became receiver-visible. */
    void
    noteArrival(Cycle arrival)
    {
        if (hint_ != nullptr) {
            if (arrival < *hint_)
                *hint_ = arrival;
            *liveWord_ |= std::uint64_t{1} << liveBit_;
        }
        if (sink_ != nullptr)
            sink_->requestWake(arrival);
    }

    Ring<Entry> queue_;
    Cycle delay_;
    /** Cycle of the last send; kNoCycle before the first. */
    Cycle lastSend_ = kNoCycle;
    std::uint64_t totalSends_ = 0;
    Component *sink_ = nullptr;
    Cycle *hint_ = nullptr;
    /** Word of the receiver's live-port mask (see setArrivalHint). */
    std::uint64_t *liveWord_ = nullptr;
    ChannelHook<T> *hook_ = nullptr;
    // Boundary mode (registrar_ set): mailbox written only by the
    // sending shard's thread, drained only at the barrier.
    std::vector<Entry> pending_;
    BoundaryRegistrar *registrar_ = nullptr;
    std::uint32_t srcShard_ = 0;
    bool dirty_ = false;
    std::uint8_t liveBit_ = 0;
};

/**
 * Reverse-direction credit carrier. Multiple credits may be granted in
 * the same cycle (e.g. when a whole chunk of flits is drained at
 * once); same-cycle grants for the same lane are merged into one
 * entry. Each grant is tagged with the virtual lane whose buffer it
 * replenishes (lane 0 when the link runs a single lane), so the
 * sender can maintain independent per-lane credit counts over one
 * physical reverse wire.
 */
class CreditChannel : public BoundaryChannel
{
  public:
    explicit CreditChannel(Cycle delay = 1);

    /** Grant @p count credits for @p lane, visible after delay. */
    void send(int count, Cycle now, int lane = 0);

    /** Collect all credits that have arrived by @p now, summed over
     *  lanes (single-lane receivers). */
    int receive(Cycle now);

    /**
     * Collect all credits that have arrived by @p now, accumulating
     * each grant into @p laneCounts[lane]. @p laneCounts must span
     * every lane the sender grants on. Returns the total collected.
     */
    int receiveByLane(Cycle now, std::span<int> laneCounts);

    /** Switch to boundary mode (see Channel); null reverts. */
    void setBoundary(BoundaryRegistrar *registrar,
                     std::uint32_t srcShard);

    // BoundaryChannel: barrier drain (main thread).
    std::size_t flushBoundary() override;

    /**
     * Register the receiving component so grants wake it if it is
     * sleeping when the credits land (fast path only).
     */
    void setWakeSink(Component *sink) { sink_ = sink; }

    /** Register the receiver's activity state (see Channel). */
    void
    setArrivalHint(Cycle *bound, SlotMask &live, std::size_t slot)
    {
        hint_ = bound;
        liveWord_ = live.word(slot);
        liveBit_ = static_cast<std::uint8_t>(slot & 63);
    }

    /** Cycle the oldest in-flight grant arrives, or kNoCycle. */
    Cycle
    nextArrival() const
    {
        return queue_.empty() ? kNoCycle : queue_.front().ready;
    }

    /** Credits in flight (granted, not yet collected). */
    int inFlight() const { return inFlight_; }

    /** Credits ever granted over the channel's lifetime. */
    std::uint64_t totalSends() const { return totalSends_; }

  private:
    struct Entry
    {
        Cycle ready;
        int count;
        int lane;
    };

    /** A grant arriving at @p arrival became receiver-visible. */
    void noteArrival(Cycle arrival);

    Ring<Entry> queue_;
    Cycle delay_;
    std::uint64_t totalSends_ = 0;
    Component *sink_ = nullptr;
    Cycle *hint_ = nullptr;
    std::uint64_t *liveWord_ = nullptr;
    /** Boundary mode (registrar_ set): see Channel. */
    std::vector<Entry> pending_;
    BoundaryRegistrar *registrar_ = nullptr;
    std::uint32_t srcShard_ = 0;
    int inFlight_ = 0;
    bool dirty_ = false;
    std::uint8_t liveBit_ = 0;
};

} // namespace mdw

#endif // MDW_SIM_CHANNEL_HH
