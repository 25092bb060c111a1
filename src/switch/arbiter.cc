#include "switch/arbiter.hh"

#include "sim/logging.hh"

namespace mdw {

const char *
toString(LaneAlloc alloc)
{
    switch (alloc) {
      case LaneAlloc::StaticClass:
        return "static";
      case LaneAlloc::Adaptive:
        return "adaptive";
    }
    return "?";
}

namespace {

int
clampLaneClass(int trafficClass)
{
    if (trafficClass < 0)
        return 0;
    if (trafficClass >= kLaneClasses)
        return kLaneClasses - 1;
    return trafficClass;
}

} // namespace

int
laneClassBase(int lanes, int trafficClass)
{
    MDW_ASSERT(lanes >= 1, "lane partition over %d lanes", lanes);
    if (lanes == 1)
        return 0;
    return clampLaneClass(trafficClass) == 0 ? 0 : (lanes + 1) / 2;
}

int
laneClassSize(int lanes, int trafficClass)
{
    MDW_ASSERT(lanes >= 1, "lane partition over %d lanes", lanes);
    if (lanes == 1)
        return 1;
    const int split = (lanes + 1) / 2;
    return clampLaneClass(trafficClass) == 0 ? split : lanes - split;
}

RoundRobinArbiter::RoundRobinArbiter(int requesters)
    : size_(requesters)
{
    MDW_ASSERT(requesters >= 0, "negative requester count");
}

void
RoundRobinArbiter::resize(int requesters)
{
    MDW_ASSERT(requesters >= 0, "negative requester count");
    size_ = requesters;
    last_ = -1;
}

int
RoundRobinArbiter::grantFrom(const std::vector<int> &requesters)
{
    if (requesters.empty() || size_ == 0)
        return -1;
    int best = -1;
    int best_rank = size_ + 1;
    for (int r : requesters) {
        MDW_ASSERT(r >= 0 && r < size_, "requester %d out of range", r);
        const int rank = (r - last_ - 1 + size_) % size_;
        if (rank < best_rank) {
            best_rank = rank;
            best = r;
        }
    }
    if (best >= 0) {
        last_ = best;
        ++grants_;
    }
    return best;
}

} // namespace mdw
