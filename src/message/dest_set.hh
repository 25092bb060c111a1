/**
 * @file
 * Dynamic bitset of destination node identifiers.
 *
 * The bit-string header encoding of the paper is literally this set:
 * bit i set means node i is a destination of the worm. Switches decode
 * by splitting the set along each output port's host intervals (see
 * topology/routing.hh), so the range operations here are the hot path
 * of multidestination routing: they touch only the words inside
 * [lo, hi).
 */

#ifndef MDW_MESSAGE_DEST_SET_HH
#define MDW_MESSAGE_DEST_SET_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace mdw {

/** Fixed-universe bitset over node ids [0, size). */
class DestSet
{
  public:
    /** Empty set over a universe of @p size nodes. */
    explicit DestSet(std::size_t size = 0);

    /** Set containing exactly the given nodes. */
    static DestSet of(std::size_t size, std::initializer_list<NodeId> ids);

    /** Universe size (number of addressable nodes). */
    std::size_t size() const { return size_; }

    void set(NodeId id);
    void clear(NodeId id);
    bool test(NodeId id) const;

    /** Remove all members. */
    void reset();

    /** Number of members. */
    std::size_t count() const;

    /** True if @p id is the only member; stops at the first word
     *  holding another member. */
    bool containsOnly(NodeId id) const;

    bool empty() const;

    /** True if every member of this set is also in @p other. */
    bool subsetOf(const DestSet &other) const;

    /** True if the sets share at least one member. */
    bool intersects(const DestSet &other) const;

    /** Lowest member, or kInvalidNode if empty. */
    NodeId first() const;

    /** Members in ascending order. */
    std::vector<NodeId> toVector() const;

    /** Add every node in [lo, hi). */
    void setRange(NodeId lo, NodeId hi);
    /** Remove every node in [lo, hi). */
    void clearRange(NodeId lo, NodeId hi);
    /** Number of members in [lo, hi). */
    std::size_t countRange(NodeId lo, NodeId hi) const;
    /** True if some member lies in [lo, hi). */
    bool anyInRange(NodeId lo, NodeId hi) const;
    /** Add the members of @p other that lie in [lo, hi). */
    void copyRange(const DestSet &other, NodeId lo, NodeId hi);

    DestSet &operator&=(const DestSet &other);
    DestSet &operator|=(const DestSet &other);
    /** Set difference: remove members of @p other. */
    DestSet &operator-=(const DestSet &other);

    friend DestSet operator&(DestSet a, const DestSet &b) { return a &= b; }
    friend DestSet operator|(DestSet a, const DestSet &b) { return a |= b; }
    friend DestSet operator-(DestSet a, const DestSet &b) { return a -= b; }

    bool operator==(const DestSet &other) const;

    /** Raw 64-bit words (for header encoding). */
    const std::vector<std::uint64_t> &words() const { return words_; }

    /** Apply @p fn to each member in ascending order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(static_cast<NodeId>(w * 64 + b));
                bits &= bits - 1;
            }
        }
    }

  private:
    void checkCompatible(const DestSet &other) const;
    void checkId(NodeId id) const;
    void checkRange(NodeId lo, NodeId hi) const;

    std::size_t size_;
    std::vector<std::uint64_t> words_;
};

} // namespace mdw

#endif // MDW_MESSAGE_DEST_SET_HH
