/**
 * @file
 * Growable power-of-two FIFO ring for the flit path.
 *
 * Every per-link and per-port queue of the simulator (channels, input
 * FIFOs, output stream queues, NIC injection lanes) is a Ring. An
 * empty ring owns no heap memory; the first push allocates four
 * slots and a full ring doubles. Once a queue has reached its
 * working depth, push and pop never allocate, so the steady-state
 * flit path runs allocation-free.
 *
 * Unlike std::deque, growth moves every element: a reference from
 * front()/back() is invalidated by a push_back on the same ring.
 *
 * The mask and indices are 32-bit, so a ring is a pointer plus 12
 * bytes; a class holding one as a [[no_unique_address]] member may
 * place up to 4 bytes of small fields in the rest of its 8-byte slot
 * (the channels do, to fit one cache line).
 */

#ifndef MDW_SIM_RING_HH
#define MDW_SIM_RING_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/logging.hh"

namespace mdw {

/** FIFO of T over a lazily allocated power-of-two ring buffer. */
template <typename T>
class Ring
{
  public:
    Ring() = default;

    Ring(Ring &&other) noexcept
        : buf_(std::move(other.buf_)),
          mask_(std::exchange(other.mask_, 0)),
          head_(std::exchange(other.head_, 0)),
          size_(std::exchange(other.size_, 0))
    {
    }

    Ring &
    operator=(Ring &&other) noexcept
    {
        Ring(std::move(other)).swap(*this);
        return *this;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void
    push_back(T item)
    {
        if (size_ == capacity())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(item);
        ++size_;
    }

    /** Drop the oldest element; its slot is reset to T() so whatever
     *  it owned (e.g. a packet reference) is released now. */
    void
    pop_front()
    {
        MDW_ASSERT(size_ > 0, "pop_front on an empty ring");
        buf_[head_] = T();
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** The @p i-th oldest element (i < size()). */
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return buf_[(head_ + size_ - 1) & mask_]; }
    const T &back() const { return buf_[(head_ + size_ - 1) & mask_]; }

    /** Release every element; the buffer is kept for reuse. */
    void
    clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

  private:
    std::uint32_t capacity() const { return buf_ ? mask_ + 1 : 0; }

    void
    swap(Ring &other) noexcept
    {
        std::swap(buf_, other.buf_);
        std::swap(mask_, other.mask_);
        std::swap(head_, other.head_);
        std::swap(size_, other.size_);
    }

    void
    grow()
    {
        MDW_ASSERT(mask_ < UINT32_MAX / 2, "ring: capacity overflow");
        const std::uint32_t cap = buf_ ? 2 * (mask_ + 1) : 4;
        auto fresh = std::make_unique<T[]>(cap);
        for (std::uint32_t i = 0; i < size_; ++i)
            fresh[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(fresh);
        mask_ = cap - 1;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::uint32_t mask_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace mdw

#endif // MDW_SIM_RING_HH
