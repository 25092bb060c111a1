#include "sim/channel.hh"

namespace mdw {

namespace {

/** Append @p grant to @p queue, merged into its newest entry when
 *  that has the same ready cycle and lane. Always inlined: it is the
 *  body of every direct grant. */
template <typename Queue>
[[gnu::always_inline]] inline void
merge(Queue &queue, const CreditGrant &grant)
{
    if (!queue.empty() && queue.back().ready == grant.ready &&
        queue.back().lane == grant.lane)
        queue.back().count += grant.count;
    else
        queue.push_back(grant);
}

} // namespace

void
CreditChannel::send(int count, Cycle now, int lane)
{
    MDW_ASSERT(count > 0, "credit channel: non-positive grant %d", count);
    MDW_ASSERT(lane >= 0, "credit channel: negative lane %d", lane);
    const CreditGrant grant{now + delay_, count, lane};
    if (mode_ != 0) {
        side_->sends += static_cast<std::uint64_t>(count);
        merge(side_->pending, grant);
        markDirty();
        return;
    }
    totalSends_ += static_cast<std::uint64_t>(count);
    merge(queue_, grant);
    noteArrival(grant.ready);
}

std::size_t
CreditChannel::flushBoundary()
{
    return drainMailbox(
        [this](CreditGrant &&grant) { merge(queue_, grant); });
}

int
CreditChannel::inFlight() const
{
    int total = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i)
        total += queue_[i].count;
    return total;
}

int
CreditChannel::receive(Cycle now)
{
    int total = 0;
    while (!queue_.empty() && queue_.front().ready <= now) {
        total += queue_.front().count;
        queue_.pop_front();
    }
    return total;
}

int
CreditChannel::receiveByLane(Cycle now, std::span<int> laneCounts)
{
    int total = 0;
    while (!queue_.empty() && queue_.front().ready <= now) {
        const CreditGrant &front = queue_.front();
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
    return total;
}

} // namespace mdw
