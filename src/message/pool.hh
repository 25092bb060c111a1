/**
 * @file
 * Thread-safe block pool for hot-path descriptor allocations.
 *
 * Contended runs create and drop packet descriptors (and their
 * shared_ptr control blocks) at flit rate; under the sharded
 * scheduler those allocations additionally happen concurrently from
 * the shard workers (worm replication calls pruneBranch() inside
 * switch steps). makePooled<T>() is a drop-in for make_shared<T>
 * backed by a free-list arena keyed on the combined
 * object+control-block size:
 *
 *  - each thread keeps a small private cache of free blocks (no
 *    locking on the common alloc/free path),
 *  - caches refill from / spill to a mutex-guarded global list in
 *    batches, so blocks freed on one thread can be reused by another
 *    without per-block lock traffic.
 *
 * A batched mutex transfer was chosen over a lock-free global stack
 * deliberately: a Treiber-stack pop is ABA-prone without hazard
 * tracking, and the transfer happens once per kBatch blocks, so the
 * mutex is off the hot path anyway.
 *
 * Pooling only changes where the bytes live — results are bitwise
 * unaffected. AddressSanitizer builds fall back to plain make_shared,
 * so every packet gets its own allocation and a use-after-free on a
 * recycled block is reported instead of silently reading the block's
 * next tenant.
 */

#ifndef MDW_MESSAGE_POOL_HH
#define MDW_MESSAGE_POOL_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <utility>

namespace mdw {

#if defined(__SANITIZE_ADDRESS__)
#define MDW_POOL_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MDW_POOL_UNDER_ASAN 1
#endif
#endif

namespace detail {

/**
 * Free-list arena for blocks of one (size, alignment) shape. All
 * state is per-instantiation static: a thread-local cache plus one
 * global overflow list.
 */
template <std::size_t Size, std::size_t Align>
class BlockArena
{
  public:
    static void *
    allocate()
    {
        Cache &cache = threadCache();
        if (cache.head == nullptr)
            refill(cache);
        if (cache.head != nullptr) {
            Node *node = cache.head;
            cache.head = node->next;
            --cache.count;
            return node;
        }
        return ::operator new(kBlock);
    }

    static void
    deallocate(void *p)
    {
        Cache &cache = threadCache();
        Node *node = static_cast<Node *>(p);
        node->next = cache.head;
        cache.head = node;
        if (++cache.count >= 2 * kBatch)
            spill(cache, kBatch);
    }

  private:
    struct Node
    {
        Node *next;
    };

    // A block must fit the free-list link and respect the payload
    // alignment.
    static constexpr std::size_t kBlock =
        Size < sizeof(Node) ? sizeof(Node) : Size;
    static constexpr std::size_t kBatch = 64;

    struct Global
    {
        std::mutex mutex;
        Node *head = nullptr;

        ~Global()
        {
            while (head != nullptr) {
                Node *next = head->next;
                ::operator delete(head);
                head = next;
            }
        }
    };

    struct Cache
    {
        Node *head = nullptr;
        std::size_t count = 0;

        ~Cache() { spillAll(*this); }
    };

    static Global &
    global()
    {
        static Global g;
        return g;
    }

    static Cache &
    threadCache()
    {
        static thread_local Cache cache;
        return cache;
    }

    static void
    refill(Cache &cache)
    {
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mutex);
        while (g.head != nullptr && cache.count < kBatch) {
            Node *node = g.head;
            g.head = node->next;
            node->next = cache.head;
            cache.head = node;
            ++cache.count;
        }
    }

    static void
    spill(Cache &cache, std::size_t target)
    {
        Global &g = global();
        std::lock_guard<std::mutex> lock(g.mutex);
        while (cache.count > target) {
            Node *node = cache.head;
            cache.head = node->next;
            node->next = g.head;
            g.head = node;
            --cache.count;
        }
    }

    static void
    spillAll(Cache &cache)
    {
        if (cache.head != nullptr)
            spill(cache, 0);
    }

    static_assert(Align <= alignof(std::max_align_t),
                  "over-aligned pooled types are not supported");
};

} // namespace detail

/**
 * STL allocator over BlockArena; only single-object allocations are
 * pooled (allocate_shared makes exactly one).
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    PoolAllocator() = default;
    template <typename U>
    PoolAllocator(const PoolAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n == 1) {
            return static_cast<T *>(
                detail::BlockArena<sizeof(T), alignof(T)>::allocate());
        }
        return static_cast<T *>(::operator new(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        if (n == 1) {
            detail::BlockArena<sizeof(T), alignof(T)>::deallocate(
                const_cast<std::remove_const_t<T> *>(p));
            return;
        }
        ::operator delete(const_cast<std::remove_const_t<T> *>(p));
    }

    template <typename U>
    bool
    operator==(const PoolAllocator<U> &) const
    {
        return true;
    }
    template <typename U>
    bool
    operator!=(const PoolAllocator<U> &) const
    {
        return false;
    }
};

/**
 * make_shared with pooled storage (object and control block in one
 * recycled block); plain make_shared under AddressSanitizer.
 */
template <typename T, typename... Args>
std::shared_ptr<T>
makePooled(Args &&...args)
{
#ifdef MDW_POOL_UNDER_ASAN
    return std::make_shared<T>(std::forward<Args>(args)...);
#else
    return std::allocate_shared<T>(PoolAllocator<T>(),
                                   std::forward<Args>(args)...);
#endif
}

} // namespace mdw

#endif // MDW_MESSAGE_POOL_HH
