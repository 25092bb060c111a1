/**
 * @file
 * A fixed-size bit set of component slots (ports, (port, lane) FIFOs)
 * that activity-driven pipeline stages walk instead of every slot.
 */

#ifndef MDW_SIM_SLOT_MASK_HH
#define MDW_SIM_SLOT_MASK_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mdw {

/**
 * A set of slots, one bit each. next() reads the live words, so a loop
 * `for (s = m.next(0); s != kEnd; s = m.next(s + 1))` visits slots in
 * ascending order exactly as a full scan that skips unset slots
 * would, even when the body sets or clears bits.
 *
 * The words are allocated once and never move: channels hold pointers
 * to them (word()), so a mask is not copyable.
 */
class SlotMask
{
  public:
    static constexpr std::size_t kEnd = ~std::size_t{0};

    explicit SlotMask(std::size_t slots) : words_((slots + 63) / 64) {}
    SlotMask(const SlotMask &) = delete;
    SlotMask &operator=(const SlotMask &) = delete;

    void set(std::size_t slot) { words_[slot >> 6] |= bit(slot); }
    void clear(std::size_t slot) { words_[slot >> 6] &= ~bit(slot); }
    bool
    test(std::size_t slot) const
    {
        return (words_[slot >> 6] & bit(slot)) != 0;
    }

    bool
    any() const
    {
        for (const std::uint64_t word : words_) {
            if (word != 0)
                return true;
        }
        return false;
    }

    /** First set slot >= @p from, or kEnd. */
    std::size_t
    next(std::size_t from) const
    {
        std::size_t w = from >> 6;
        if (w >= words_.size())
            return kEnd;
        std::uint64_t word =
            words_[w] & (~std::uint64_t{0} << (from & 63));
        while (word == 0) {
            if (++w == words_.size())
                return kEnd;
            word = words_[w];
        }
        return (w << 6) +
               static_cast<std::size_t>(std::countr_zero(word));
    }

    /** The word holding @p slot's bit (bit slot % 64), for a writer
     *  that sets the bit without knowing the mask (Channel). */
    std::uint64_t *word(std::size_t slot) { return &words_[slot >> 6]; }

  private:
    static std::uint64_t
    bit(std::size_t slot)
    {
        return std::uint64_t{1} << (slot & 63);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace mdw

#endif // MDW_SIM_SLOT_MASK_HH
