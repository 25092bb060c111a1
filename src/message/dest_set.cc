#include "message/dest_set.hh"

#include "sim/logging.hh"

namespace mdw {

namespace {

/** Call fn(word index, mask of the word's bits in [lo, hi)). */
template <typename Fn>
void
forRangeWords(NodeId lo, NodeId hi, Fn &&fn)
{
    if (lo >= hi)
        return;
    const auto first = static_cast<std::size_t>(lo) / 64;
    const auto last = static_cast<std::size_t>(hi - 1) / 64;
    const std::uint64_t lo_mask = ~0ULL << (lo % 64);
    const std::uint64_t hi_mask = ~0ULL >> (63 - (hi - 1) % 64);
    if (first == last) {
        fn(first, lo_mask & hi_mask);
        return;
    }
    fn(first, lo_mask);
    for (std::size_t w = first + 1; w < last; ++w)
        fn(w, ~0ULL);
    fn(last, hi_mask);
}

/**
 * Population count of one word. The build targets baseline x86-64
 * (no -mpopcnt), where __builtin_popcountll becomes a call into
 * libgcc; this SWAR reduction stays inline.
 */
inline std::size_t
popcount(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return static_cast<std::size_t>((x * 0x0101010101010101ULL) >> 56);
}

} // namespace

DestSet::DestSet(std::size_t size)
    : size_(size), words_((size + 63) / 64, 0)
{
}

DestSet
DestSet::of(std::size_t size, std::initializer_list<NodeId> ids)
{
    DestSet s(size);
    for (NodeId id : ids)
        s.set(id);
    return s;
}

void
DestSet::checkId(NodeId id) const
{
    MDW_ASSERT(id >= 0 && static_cast<std::size_t>(id) < size_,
               "node id %d out of universe [0,%zu)", id, size_);
}

void
DestSet::checkCompatible(const DestSet &other) const
{
    MDW_ASSERT(other.size_ == size_,
               "DestSet universe mismatch: %zu vs %zu", size_,
               other.size_);
}

void
DestSet::checkRange(NodeId lo, NodeId hi) const
{
    MDW_ASSERT(lo >= 0 && lo <= hi && static_cast<std::size_t>(hi) <= size_,
               "node range [%d,%d) out of universe [0,%zu)", lo, hi,
               size_);
}

void
DestSet::set(NodeId id)
{
    checkId(id);
    words_[id / 64] |= 1ULL << (id % 64);
}

void
DestSet::clear(NodeId id)
{
    checkId(id);
    words_[id / 64] &= ~(1ULL << (id % 64));
}

bool
DestSet::test(NodeId id) const
{
    checkId(id);
    return (words_[id / 64] >> (id % 64)) & 1ULL;
}

void
DestSet::reset()
{
    for (auto &w : words_)
        w = 0;
}

std::size_t
DestSet::count() const
{
    std::size_t total = 0;
    for (auto w : words_)
        total += popcount(w);
    return total;
}

bool
DestSet::containsOnly(NodeId id) const
{
    checkId(id);
    const auto home = static_cast<std::size_t>(id) / 64;
    if (words_[home] != 1ULL << (id % 64))
        return false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
        if (w != home && words_[w] != 0)
            return false;
    }
    return true;
}

bool
DestSet::empty() const
{
    for (auto w : words_) {
        if (w)
            return false;
    }
    return true;
}

bool
DestSet::subsetOf(const DestSet &other) const
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (words_[i] & ~other.words_[i])
            return false;
    }
    return true;
}

bool
DestSet::intersects(const DestSet &other) const
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (words_[i] & other.words_[i])
            return true;
    }
    return false;
}

NodeId
DestSet::first() const
{
    for (std::size_t w = 0; w < words_.size(); ++w) {
        if (words_[w])
            return static_cast<NodeId>(w * 64 + __builtin_ctzll(words_[w]));
    }
    return kInvalidNode;
}

std::vector<NodeId>
DestSet::toVector() const
{
    std::vector<NodeId> out;
    out.reserve(count());
    forEach([&out](NodeId id) { out.push_back(id); });
    return out;
}

void
DestSet::setRange(NodeId lo, NodeId hi)
{
    checkRange(lo, hi);
    forRangeWords(lo, hi,
                  [this](std::size_t w, std::uint64_t m) { words_[w] |= m; });
}

void
DestSet::clearRange(NodeId lo, NodeId hi)
{
    checkRange(lo, hi);
    forRangeWords(lo, hi,
                  [this](std::size_t w, std::uint64_t m) { words_[w] &= ~m; });
}

std::size_t
DestSet::countRange(NodeId lo, NodeId hi) const
{
    checkRange(lo, hi);
    std::size_t total = 0;
    forRangeWords(lo, hi, [this, &total](std::size_t w, std::uint64_t m) {
        total += popcount(words_[w] & m);
    });
    return total;
}

bool
DestSet::anyInRange(NodeId lo, NodeId hi) const
{
    checkRange(lo, hi);
    std::uint64_t any = 0;
    forRangeWords(lo, hi, [this, &any](std::size_t w, std::uint64_t m) {
        any |= words_[w] & m;
    });
    return any != 0;
}

void
DestSet::copyRange(const DestSet &other, NodeId lo, NodeId hi)
{
    checkCompatible(other);
    checkRange(lo, hi);
    forRangeWords(lo, hi, [this, &other](std::size_t w, std::uint64_t m) {
        words_[w] |= other.words_[w] & m;
    });
}

DestSet &
DestSet::operator&=(const DestSet &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] &= other.words_[i];
    return *this;
}

DestSet &
DestSet::operator|=(const DestSet &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] |= other.words_[i];
    return *this;
}

DestSet &
DestSet::operator-=(const DestSet &other)
{
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i)
        words_[i] &= ~other.words_[i];
    return *this;
}

bool
DestSet::operator==(const DestSet &other) const
{
    return size_ == other.size_ && words_ == other.words_;
}

} // namespace mdw
