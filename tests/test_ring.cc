/**
 * @file
 * Unit tests for Ring, the FIFO behind every flit-path queue.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "sim/ring.hh"

namespace mdw {
namespace {

static_assert(!std::is_copy_constructible_v<Ring<int>>);
static_assert(std::is_nothrow_move_constructible_v<Ring<int>>);
static_assert(std::is_nothrow_move_assignable_v<Ring<int>>);

TEST(Ring, StartsEmpty)
{
    Ring<int> ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.size(), 0u);
}

TEST(Ring, FifoOrderAcrossWrapAndGrowth)
{
    Ring<int> ring;
    int pushed = 0;
    int popped = 0;
    // Pop part-way so the head sits mid-buffer when the ring fills:
    // every growth then has to unwrap the elements in order.
    for (int round = 0; round < 6; ++round) {
        for (int i = 0; i < 5 + round; ++i)
            ring.push_back(pushed++);
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(ring.front(), popped);
            ring.pop_front();
            ++popped;
        }
        ASSERT_EQ(ring.size(), static_cast<std::size_t>(pushed - popped));
        for (std::size_t i = 0; i < ring.size(); ++i)
            ASSERT_EQ(ring[i], popped + static_cast<int>(i));
    }
    while (!ring.empty()) {
        ASSERT_EQ(ring.front(), popped);
        ring.pop_front();
        ++popped;
    }
    EXPECT_EQ(popped, pushed);
}

TEST(Ring, PopReleasesTheElement)
{
    auto held = std::make_shared<int>(7);
    Ring<std::shared_ptr<int>> ring;
    ring.push_back(held);
    ring.push_back(held);
    EXPECT_EQ(held.use_count(), 3);
    ring.pop_front();
    EXPECT_EQ(held.use_count(), 2);
    ring.clear();
    EXPECT_EQ(held.use_count(), 1);
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, BackAfterGrowth)
{
    Ring<int> ring;
    for (int i = 0; i < 4; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.pop_front();
    // Head at slot 2 of 4: these pushes wrap, then force a growth.
    for (int i = 4; i < 9; ++i) {
        ring.push_back(i);
        ASSERT_EQ(ring.back(), i);
    }
    EXPECT_EQ(ring.front(), 2);
    EXPECT_EQ(ring.size(), 7u);
    ring.back() = 42;
    EXPECT_EQ(ring.back(), 42);
}

TEST(Ring, MoveTransfersContents)
{
    Ring<std::unique_ptr<int>> ring;
    for (int i = 0; i < 6; ++i)
        ring.push_back(std::make_unique<int>(i));

    Ring<std::unique_ptr<int>> moved(std::move(ring));
    EXPECT_TRUE(ring.empty());
    ASSERT_EQ(moved.size(), 6u);
    EXPECT_EQ(*moved.front(), 0);
    EXPECT_EQ(*moved.back(), 5);

    // The moved-from ring is a fresh, usable ring.
    ring.push_back(std::make_unique<int>(99));
    EXPECT_EQ(*ring.front(), 99);

    ring = std::move(moved);
    ASSERT_EQ(ring.size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(*ring.front(), i);
        ring.pop_front();
    }
}

TEST(Ring, ClearKeepsRingUsable)
{
    Ring<int> ring;
    for (int i = 0; i < 10; ++i)
        ring.push_back(i);
    ring.pop_front();
    ring.clear();
    EXPECT_TRUE(ring.empty());
    ring.push_back(3);
    EXPECT_EQ(ring.front(), 3);
    EXPECT_EQ(ring.back(), 3);
}

TEST(RingDeath, PopEmptyPanics)
{
    Ring<int> ring;
    EXPECT_DEATH(ring.pop_front(), "empty ring");
}

} // namespace
} // namespace mdw
