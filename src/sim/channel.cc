#include "sim/channel.hh"

namespace mdw {

CreditChannel::CreditChannel(Cycle delay) : delay_(delay)
{
    MDW_ASSERT(delay_ >= 1, "credit channel: delay must be >= 1");
}

void
CreditChannel::send(int count, Cycle now, int lane)
{
    MDW_ASSERT(count > 0, "credit channel: non-positive grant %d", count);
    MDW_ASSERT(lane >= 0, "credit channel: negative lane %d", lane);
    const Cycle ready = now + delay_;
    totalSends_ += static_cast<std::uint64_t>(count);
    if (registrar_ != nullptr) {
        // inFlight_ is charged at the barrier flush, not here: the
        // sink's shard decrements it in receive(), so the sending
        // shard must not touch it mid-phase (the two run
        // concurrently). Quiescence checks only look between cycles,
        // when every mailbox has already been flushed.
        if (!pending_.empty() && pending_.back().ready == ready &&
            pending_.back().lane == lane) {
            pending_.back().count += count;
        } else {
            pending_.push_back(Entry{ready, count, lane});
        }
        if (!dirty_) {
            dirty_ = true;
            registrar_->boundaryDirty(srcShard_, this);
        }
        return;
    }
    inFlight_ += count;
    if (!queue_.empty() && queue_.back().ready == ready &&
        queue_.back().lane == lane) {
        queue_.back().count += count;
    } else {
        queue_.push_back(Entry{ready, count, lane});
    }
    noteArrival(ready);
}

void
CreditChannel::noteArrival(Cycle arrival)
{
    if (hint_ != nullptr) {
        if (arrival < *hint_)
            *hint_ = arrival;
        *liveWord_ |= std::uint64_t{1} << liveBit_;
    }
    if (sink_ != nullptr)
        sink_->requestWake(arrival);
}

void
CreditChannel::setBoundary(BoundaryRegistrar *registrar,
                           std::uint32_t srcShard)
{
    MDW_ASSERT(pending_.empty(),
               "credit channel: mode change with buffered grants");
    registrar_ = registrar;
    srcShard_ = srcShard;
}

std::size_t
CreditChannel::flushBoundary()
{
    const std::size_t moved = pending_.size();
    dirty_ = false;
    if (moved == 0)
        return 0;
    const Cycle first = pending_.front().ready;
    for (const Entry &entry : pending_) {
        inFlight_ += entry.count;
        if (!queue_.empty() && queue_.back().ready == entry.ready &&
            queue_.back().lane == entry.lane)
            queue_.back().count += entry.count;
        else
            queue_.push_back(entry);
    }
    pending_.clear();
    noteArrival(first);
    return moved;
}

int
CreditChannel::receive(Cycle now)
{
    int total = 0;
    while (!queue_.empty() && queue_.front().ready <= now) {
        total += queue_.front().count;
        queue_.pop_front();
    }
    inFlight_ -= total;
    return total;
}

int
CreditChannel::receiveByLane(Cycle now, std::span<int> laneCounts)
{
    int total = 0;
    while (!queue_.empty() && queue_.front().ready <= now) {
        const Entry &front = queue_.front();
        MDW_ASSERT(front.lane <
                       static_cast<int>(laneCounts.size()),
                   "credit channel: grant on lane %d but receiver "
                   "runs %zu lanes",
                   front.lane, laneCounts.size());
        laneCounts[static_cast<std::size_t>(front.lane)] +=
            front.count;
        total += front.count;
        queue_.pop_front();
    }
    inFlight_ -= total;
    return total;
}

} // namespace mdw
