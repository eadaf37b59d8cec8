/**
 * @file
 * Size-classed slab allocator for data-plane hot paths.
 *
 * Steady-state simulation recycles the same handful of object shapes
 * millions of times: message payload buffers, coroutine frames, and
 * scheduled event callables. Routing those through the global heap
 * costs a malloc/free pair per object and scatters them across the
 * address space. The Pool instead carves large slabs into fixed-size
 * blocks per size class and keeps freed blocks on intrusive
 * free lists, so a steady-state allocate/deallocate pair is two
 * pointer moves and never touches the system allocator.
 *
 * Every block is preceded by a 16-byte header recording its size
 * class, so deallocate(p) needs no size argument — which is what lets
 * pooled coroutine frames use it from `operator delete(void*)`.
 *
 * The simulator is single-threaded, so one process-wide pool serves
 * every simulation and needs no synchronization.
 *
 * In the sanitizer lane (LYNX_POOL_PASSTHROUGH) every allocation goes
 * straight to the system allocator so ASan keeps seeing
 * use-after-free and leaks at full fidelity.
 */

#ifndef LYNX_SIM_POOL_HH
#define LYNX_SIM_POOL_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace lynx::sim {

/** Size-classed slab arena; one process-wide instance (instance()). */
class Pool
{
  public:
    /** Largest request served from a size class; bigger requests fall
     *  through to the system allocator (still header-tagged, so
     *  deallocate() stays uniform). */
    static constexpr std::size_t kMaxBlockSize = 64 * 1024;

    /** Bytes of bookkeeping in front of every returned block. */
    static constexpr std::size_t kHeaderSize = 16;

    /** Allocation/reuse counters, exposed for tests and reports. */
    struct Stats
    {
        std::uint64_t freelistHits = 0;  ///< recycled-block allocations
        std::uint64_t freshBlocks = 0;   ///< blocks carved from slabs
        std::uint64_t oversize = 0;      ///< requests > kMaxBlockSize
        std::uint64_t slabs = 0;         ///< slabs requested from the OS
        std::size_t bytesReserved = 0;   ///< total slab bytes held
    };

    /** @return the process-wide pool. Defined here so the hot
     *  allocate/deallocate call sites inline it. Leak-free: the
     *  function-local static is destroyed at exit, after
     *  (namespace-scope) simulators, and returns every slab. */
    static Pool &
    instance() noexcept
    {
        static Pool pool;
        return pool;
    }

    /** @return a block of at least @p n bytes, 16-byte aligned. */
    void *allocate(std::size_t n);

    /** Return @p p (a pointer from allocate()) to its free list. */
    void deallocate(void *p) noexcept;

    const Stats &stats() const { return stats_; }

    ~Pool();

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

  private:
    Pool() = default;

    /** Free-list node, stored in the (dead) block body. */
    struct FreeNode
    {
        FreeNode *next;
    };

    struct Header
    {
        std::uint32_t cls;   ///< size-class index, or kOversizeClass
        std::uint32_t magic; ///< corruption / double-free canary
        std::uint64_t pad;   ///< keeps block bodies 16-byte aligned
    };
    static_assert(sizeof(Header) == kHeaderSize);

    static constexpr std::uint32_t kMagic = 0x504f4f4cu; // "POOL"
    static constexpr std::uint32_t kOversizeClass = 0xffffffffu;

    /** Size classes: powers of two plus halfway points, 32..64K. */
    static constexpr std::size_t kClassSizes[] = {
        32,    48,    64,    96,    128,   192,   256,  384,
        512,   768,   1024,  1536,  2048,  3072,  4096, 6144,
        8192,  12288, 16384, 24576, 32768, 49152, 65536};
    static constexpr std::size_t kClasses = std::size(kClassSizes);

    /** @return the index of the smallest class holding @p n bytes. */
    static std::size_t
    classIndex(std::size_t n) noexcept
    {
        if (n <= 32)
            return 0;
        // 2^p < n <= 2^(p+1); classes sit at 1.5*2^p and 2^(p+1).
        const unsigned p = std::bit_width(n - 1) - 1;
        const std::size_t half = std::size_t(3) << (p - 1);
        return 2 * (p - 5) + (n > half ? 2 : 1);
    }

    void *carveSlab(std::size_t cls);

    FreeNode *freeLists_[kClasses] = {};
    std::vector<void *> slabs_;
    Stats stats_;
};

/**
 * Minimal std::allocator replacement routing container storage
 * through the Pool. Used for long-lived hot-path containers (the span
 * collector's live-request tables) whose occasional growth must
 * recycle pool blocks instead of hitting the heap mid-run.
 */
template <typename T>
struct PoolAllocator
{
    using value_type = T;

    PoolAllocator() noexcept = default;

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(Pool::instance().allocate(n * sizeof(T)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        Pool::instance().deallocate(p);
    }

    friend bool
    operator==(const PoolAllocator &, const PoolAllocator &) noexcept
    {
        return true;
    }
};

} // namespace lynx::sim

#endif // LYNX_SIM_POOL_HH
