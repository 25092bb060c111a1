/**
 * @file
 * Unit tests for SlotMask, the bit set the activity-driven switch
 * stages walk, on both sides of its 64-bit word boundaries.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <type_traits>
#include <vector>

#include "sim/rng.hh"
#include "sim/slot_mask.hh"

namespace mdw {
namespace {

// Channels hold pointers into a mask's words.
static_assert(!std::is_copy_constructible_v<SlotMask>);
static_assert(!std::is_move_constructible_v<SlotMask>);

/** First set slot >= @p from in @p ref, or SlotMask::kEnd. */
std::size_t
refNext(const std::vector<bool> &ref, std::size_t from)
{
    for (std::size_t s = from; s < ref.size(); ++s) {
        if (ref[s])
            return s;
    }
    return SlotMask::kEnd;
}

/** Every slot of @p mask agrees with @p ref under each query. */
void
expectMatches(const SlotMask &mask, const std::vector<bool> &ref)
{
    bool any = false;
    for (std::size_t s = 0; s < ref.size(); ++s) {
        ASSERT_EQ(mask.test(s), ref[s]) << "slot " << s;
        ASSERT_EQ(mask.next(s), refNext(ref, s)) << "from " << s;
        any = any || ref[s];
    }
    EXPECT_EQ(mask.any(), any);
    EXPECT_EQ(mask.next(ref.size()), SlotMask::kEnd);
}

class SlotMaskSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SlotMaskSizes, MatchesReferenceUnderRandomOps)
{
    const std::size_t slots = GetParam();
    SlotMask mask(slots);
    std::vector<bool> ref(slots, false);
    expectMatches(mask, ref);
    Rng rng(slots * 31 + 5);
    for (int op = 0; op < 2000; ++op) {
        const std::size_t s = rng.below(slots);
        // Sets outnumber clears early and clears win late, so the mask
        // runs from sparse through dense back to empty.
        const bool set = rng.below(2000) >= static_cast<std::uint64_t>(op);
        if (set) {
            mask.set(s);
            ref[s] = true;
        } else {
            mask.clear(s);
            ref[s] = false;
        }
        if (op % 50 == 0)
            expectMatches(mask, ref);
    }
    for (std::size_t s = 0; s < slots; ++s) {
        mask.clear(s);
        ref[s] = false;
    }
    expectMatches(mask, ref);
}

TEST_P(SlotMaskSizes, LoopBodyMaySetAndClearBits)
{
    // A stage walking the mask may clear the slot it visits, clear a
    // later one (it is then skipped), or set a later one (it is then
    // visited): the walk equals a full scan that tests each slot
    // when it reaches it.
    const std::size_t slots = GetParam();
    SlotMask mask(slots);
    std::vector<bool> ref(slots, false);
    Rng rng(slots + 99);
    for (std::size_t s = 0; s < slots; ++s) {
        if (rng.below(3) == 0) {
            mask.set(s);
            ref[s] = true;
        }
    }
    // The body's edits, drawn per visited slot: (clear self?, slot to
    // set, slot to clear), applied identically to the reference scan.
    struct Edit
    {
        bool clearSelf;
        std::size_t setAt;
        std::size_t clearAt;
    };
    std::vector<Edit> edits(slots);
    for (Edit &e : edits)
        e = Edit{rng.below(2) == 0, rng.below(slots), rng.below(slots)};
    auto apply = [&](std::size_t s, auto &&setBit, auto &&clearBit) {
        const Edit &e = edits[s];
        if (e.clearSelf)
            clearBit(s);
        setBit(e.setAt);
        clearBit(e.clearAt);
    };

    std::vector<std::size_t> walked;
    for (std::size_t s = mask.next(0); s != SlotMask::kEnd;
         s = mask.next(s + 1)) {
        walked.push_back(s);
        apply(
            s, [&](std::size_t t) { mask.set(t); },
            [&](std::size_t t) { mask.clear(t); });
    }
    std::vector<std::size_t> scanned;
    for (std::size_t s = 0; s < slots; ++s) {
        if (!ref[s])
            continue;
        scanned.push_back(s);
        apply(
            s, [&](std::size_t t) { ref[t] = true; },
            [&](std::size_t t) { ref[t] = false; });
    }
    EXPECT_EQ(walked, scanned);
    expectMatches(mask, ref);
}

INSTANTIATE_TEST_SUITE_P(WordBoundaries, SlotMaskSizes,
                         ::testing::Values(1, 8, 64, 65, 128, 129, 512));

TEST(SlotMask, WordHoldsTheSlotsBit)
{
    for (const std::size_t slots : {8u, 128u, 129u, 512u}) {
        SlotMask mask(slots);
        const std::size_t slot = slots - 1;
        *mask.word(slot) |= std::uint64_t{1} << (slot & 63);
        EXPECT_TRUE(mask.test(slot)) << slots;
        EXPECT_EQ(mask.next(0), slot) << slots;
    }
}

} // namespace
} // namespace mdw
