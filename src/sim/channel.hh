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
 *
 * Each channel is exactly one 64-byte cache line holding only what
 * every send and receive touches. State that only boundary channels
 * (sharded runs) or hooked channels (link-layer runs) need lives in
 * an out-of-line ChannelSide record that the owner attaches with
 * setSide(); a plain direct channel has none.
 */

#ifndef MDW_SIM_CHANNEL_HH
#define MDW_SIM_CHANNEL_HH

#include <cstdint>
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

/** One item in flight with the cycle it becomes receivable. */
template <typename T>
struct Stamped
{
    Cycle ready;
    T item;
};

/** One credit grant in flight, tagged with its virtual lane. */
struct CreditGrant
{
    Cycle ready;
    int count;
    int lane;
};

/**
 * Out-of-line state of a boundary or hooked channel, one line of its
 * own. During a parallel phase a boundary channel's sending thread
 * writes only this record (mailbox, dirty flag, send count, last
 * send), never the channel's line, which the receiving thread owns.
 * Both halves can be live at once: a hooked boundary channel keeps
 * its hook here beside its mailbox.
 */
template <typename Entry, typename Hook>
struct alignas(64) ChannelSide
{
    /** Boundary mode: sends awaiting the barrier flush. */
    std::vector<Entry> pending;
    BoundaryRegistrar *registrar = nullptr;
    /** Link-layer hook, or null. */
    Hook *hook = nullptr;
    /** Cycle of the last send; kNoCycle before the first. */
    Cycle lastSend = kNoCycle;
    /** Sends (or credits) buffered since the last flush; the flush
     *  folds them into the channel's count. */
    std::uint64_t sends = 0;
    std::uint32_t srcShard = 0;
    bool dirty = false;
};

/**
 * The line and code Channel and CreditChannel share: the in-flight
 * ring, the receiver's wake sink and activity hint, the send count,
 * and the boundary mailbox drain. @p Derived provides
 * flushBoundary() for the barrier.
 */
template <typename Derived, typename Entry, typename Hook>
class alignas(64) ChannelBase
{
  public:
    using Side = ChannelSide<Entry, Hook>;

    /** mode() bits; zero is a plain direct channel. */
    static constexpr std::uint8_t kBoundary = 1;
    static constexpr std::uint8_t kHooked = 2;

    /**
     * Attach the record boundary mode and a link hook keep their state
     * in (not owned; it must outlive the channel's use of either).
     * Required before setBoundary() or setHook() with a non-null
     * argument.
     */
    void
    setSide(Side *side)
    {
        MDW_ASSERT(mode_ == 0, "channel: side record swapped in use");
        side_ = side;
    }
    const Side *side() const { return side_; }
    std::uint8_t mode() const { return mode_; }

    /**
     * Switch the channel into boundary mode: sends append to the
     * side record's mailbox, owned by the sending shard's thread
     * (@p srcShard), and the simulator moves the mailbox into the
     * receiver-visible queue at the cycle barrier. Because delay >= 1,
     * an item sent at cycle t is never observable at t, so the
     * deferred push is invisible to results. Pass null to revert to
     * direct delivery. Incompatible with a link-layer hook.
     */
    void
    setBoundary(BoundaryRegistrar *registrar, std::uint32_t srcShard)
    {
        if (registrar == nullptr) {
            MDW_ASSERT(side_ == nullptr || side_->pending.empty(),
                       "channel: mode change with buffered sends");
            mode_ &= static_cast<std::uint8_t>(~kBoundary);
            return;
        }
        MDW_ASSERT(side_ != nullptr,
                   "channel: boundary mode needs a side record");
        MDW_ASSERT((mode_ & kHooked) == 0,
                   "channel: boundary mode with a link hook");
        MDW_ASSERT(side_->pending.empty(),
                   "channel: mode change with buffered sends");
        side_->registrar = registrar;
        side_->srcShard = srcShard;
        mode_ |= kBoundary;
    }

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
        // Arrivals are pushed in ready order, so front() is the
        // earliest.
        return queue_.empty() ? kNoCycle : queue_.front().ready;
    }

    /** Items (credits) ever sent over the channel's lifetime. */
    std::uint64_t
    totalSends() const
    {
        return totalSends_ + (side_ != nullptr ? side_->sends : 0);
    }

    /** Channel delay in cycles. */
    Cycle delay() const { return delay_; }

  protected:
    explicit ChannelBase(Cycle delay)
        : delay_(static_cast<std::uint16_t>(delay))
    {
        MDW_ASSERT(delay >= 1 && delay <= UINT16_MAX,
                   "channel: delay must be >= 1 (and fit 16 bits)");
    }

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

    /** Boundary mode, sending thread: report the first buffered send
     *  since the last flush to the registrar. */
    void
    markDirty()
    {
        Side &side = *side_;
        if (side.dirty)
            return;
        side.dirty = true;
        side.registrar->boundaryDirty(
            side.srcShard,
            BoundaryChannel{static_cast<Derived *>(this), &flushThunk});
    }

    /**
     * Barrier (main thread; the sending shard finished its phase, so
     * the mailbox is quiescent): hand every buffered entry to
     * @p deliver in send order, fold the buffered send count in, and
     * wake the receiver. Returns the number of entries moved.
     */
    template <typename Deliver>
    std::size_t
    drainMailbox(Deliver &&deliver)
    {
        Side &side = *side_;
        side.dirty = false;
        totalSends_ += std::exchange(side.sends, 0);
        const std::size_t moved = side.pending.size();
        if (moved == 0)
            return 0;
        // One wake at the earliest arrival suffices: once awake, the
        // sink's nextWork() accounts for every queued arrival.
        const Cycle first = side.pending.front().ready;
        for (Entry &entry : side.pending)
            deliver(std::move(entry));
        side.pending.clear();
        noteArrival(first);
        return moved;
    }

    // The hot line. The ring's tail padding holds mode_, liveBit_ and
    // delay_, so the line fits exactly (static_asserts below).
    [[no_unique_address]] Ring<Entry> queue_;
    std::uint8_t mode_ = 0;
    std::uint8_t liveBit_ = 0;
    std::uint16_t delay_;
    std::uint64_t totalSends_ = 0;
    Component *sink_ = nullptr;
    Cycle *hint_ = nullptr;
    /** Word of the receiver's live-port mask (see setArrivalHint). */
    std::uint64_t *liveWord_ = nullptr;
    Side *side_ = nullptr;

  private:
    static std::size_t
    flushThunk(void *channel)
    {
        return static_cast<Derived *>(channel)->flushBoundary();
    }
};

/**
 * One-item-per-cycle unidirectional link with fixed delay (see
 * ChannelBase for boundary mode).
 */
template <typename T>
class Channel : public ChannelBase<Channel<T>, Stamped<T>, ChannelHook<T>>
{
    using Base = ChannelBase<Channel<T>, Stamped<T>, ChannelHook<T>>;
    using Entry = Stamped<T>;
    using Base::delay_;
    using Base::mode_;
    using Base::queue_;
    using Base::side_;
    using Base::totalSends_;

  public:
    using Base::kBoundary;
    using Base::kHooked;

    /** @param delay Cycles between send and earliest receive (>= 1). */
    explicit Channel(Cycle delay = 1) : Base(delay) {}

    /** Send one item; at most one send per cycle is legal. */
    void
    send(T item, Cycle now)
    {
        MDW_ASSERT(!busy(now), "channel: two sends in cycle %llu",
                   static_cast<unsigned long long>(now));
        sendUnchecked(std::move(item), now);
    }

    /** send() for a caller that has just found !busy(now) itself. */
    void
    sendUnchecked(T item, Cycle now)
    {
        if (mode_ != 0) {
            sendViaSide(std::move(item), now);
            return;
        }
        ++totalSends_;
        const Cycle arrival = now + delay_;
        queue_.push_back(Entry{arrival, std::move(item)});
        this->noteArrival(arrival);
    }

    /** Barrier drain (see ChannelBase::drainMailbox). */
    std::size_t
    flushBoundary()
    {
        return this->drainMailbox(
            [this](Entry &&entry) { queue_.push_back(std::move(entry)); });
    }

    /**
     * Attach a link-layer hook (transient-fault subsystem); null
     * detaches, which is only valid with nothing in flight (busy()
     * then reads the wire delay off the queue again). The channel
     * does not own the hook; it lives in the side record, which must
     * be attached first.
     */
    void
    setHook(ChannelHook<T> *hook)
    {
        MDW_ASSERT(hook == nullptr || (mode_ & kBoundary) == 0,
                   "channel: link hook in boundary mode");
        if (hook == nullptr) {
            if (side_ != nullptr)
                side_->hook = nullptr;
            mode_ &= static_cast<std::uint8_t>(~kHooked);
            return;
        }
        MDW_ASSERT(side_ != nullptr,
                   "channel: link hook needs a side record");
        side_->hook = hook;
        mode_ |= kHooked;
    }
    ChannelHook<T> *
    hook() const
    {
        return side_ != nullptr ? side_->hook : nullptr;
    }

    /** True if send() was already called this cycle. */
    bool
    busy(Cycle now) const
    {
        // A direct send at now is the newest entry, stamped
        // now + delay, and cannot have been received yet (delay >= 1).
        if (mode_ == 0)
            return !queue_.empty() && queue_.back().ready == now + delay_;
        return side_->lastSend == now;
    }

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
        if ((mode_ & kHooked) != 0)
            side_->hook->onReceive(item);
        return item;
    }

    /** Number of items in flight (sent, not yet received). */
    std::size_t
    inFlight() const
    {
        return queue_.size() +
               (side_ != nullptr ? side_->pending.size() : 0);
    }

  private:
    /** send() for boundary and hooked channels. */
    void
    sendViaSide(T item, Cycle now)
    {
        auto &side = *side_;
        const bool boundary = (mode_ & kBoundary) != 0;
        side.lastSend = now;
        ++(boundary ? side.sends : totalSends_);
        Cycle arrival = now + delay_;
        if ((mode_ & kHooked) != 0) {
            arrival = side.hook->onSend(item, now);
            if (arrival == kNoCycle)
                return; // dropped on a dead/escalated link
            MDW_ASSERT(arrival >= now + delay_,
                       "channel: hook arrival before wire delay");
            MDW_ASSERT(boundary ? side.pending.empty() ||
                                      arrival >= side.pending.back().ready
                                : queue_.empty() ||
                                      arrival >= queue_.back().ready,
                       "channel: hook broke FIFO arrival order");
        }
        if (boundary) {
            side.pending.push_back(Entry{arrival, std::move(item)});
            this->markDirty();
            return;
        }
        queue_.push_back(Entry{arrival, std::move(item)});
        this->noteArrival(arrival);
    }
};

/**
 * Reverse-direction credit carrier. Multiple credits may be granted in
 * the same cycle (e.g. when a whole chunk of flits is drained at
 * once); same-cycle grants for the same lane are merged into one
 * entry. Each grant is tagged with the virtual lane whose buffer it
 * replenishes (lane 0 when the link runs a single lane), so the
 * sender can maintain independent per-lane credit counts over one
 * physical reverse wire. Credit channels take no link hook.
 */
class CreditChannel : public ChannelBase<CreditChannel, CreditGrant, void>
{
  public:
    explicit CreditChannel(Cycle delay = 1) : ChannelBase(delay) {}

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

    /** Barrier drain (see ChannelBase::drainMailbox). */
    std::size_t flushBoundary();

    /** Credits in flight: granted and receiver-visible, not yet
     *  collected (a boundary mailbox is charged at its flush). */
    int inFlight() const;
};

static_assert(sizeof(Channel<int>) == 64 && alignof(Channel<int>) == 64,
              "a channel is one cache line");
static_assert(sizeof(CreditChannel) == 64 &&
                  alignof(CreditChannel) == 64,
              "a credit channel is one cache line");
static_assert(sizeof(ChannelSide<CreditGrant, void>) == 64,
              "a side record is one cache line");

} // namespace mdw

#endif // MDW_SIM_CHANNEL_HH
