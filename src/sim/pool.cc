#include "pool.hh"

#include <algorithm>

#include "logging.hh"

namespace lynx::sim {

Pool::~Pool()
{
    for (void *slab : slabs_)
        ::operator delete(slab);
}

void *
Pool::allocate(std::size_t n)
{
    if (n == 0)
        n = 1;
#if defined(LYNX_POOL_PASSTHROUGH)
    // Sanitizer lane: no recycling, so ASan sees every lifetime.
    auto *h = static_cast<Header *>(::operator new(n + kHeaderSize));
    h->cls = kOversizeClass;
    h->magic = kMagic;
    ++stats_.oversize;
    return h + 1;
#else
    if (n > kMaxBlockSize) {
        auto *h = static_cast<Header *>(::operator new(n + kHeaderSize));
        h->cls = kOversizeClass;
        h->magic = kMagic;
        ++stats_.oversize;
        return h + 1;
    }
    const std::size_t cls = classIndex(n);
    void *body;
    if (FreeNode *node = freeLists_[cls]) {
        freeLists_[cls] = node->next;
        ++stats_.freelistHits;
        body = node;
    } else {
        body = carveSlab(cls);
        ++stats_.freshBlocks;
    }
    auto *h = static_cast<Header *>(body) - 1;
    h->cls = static_cast<std::uint32_t>(cls);
    h->magic = kMagic;
    return body;
#endif
}

void
Pool::deallocate(void *p) noexcept
{
    if (!p)
        return;
    auto *h = static_cast<Header *>(p) - 1;
    LYNX_DEBUG_ASSERT(h->magic == kMagic,
                      "Pool::deallocate: bad block (double free or "
                      "foreign pointer)");
    h->magic = 0;
    if (h->cls == kOversizeClass) {
        ::operator delete(h);
        return;
    }
    auto *node = static_cast<FreeNode *>(p);
    node->next = freeLists_[h->cls];
    freeLists_[h->cls] = node;
}

void *
Pool::carveSlab(std::size_t cls)
{
    const std::size_t stride = kClassSizes[cls] + kHeaderSize;
    // At least 64 KiB per slab, and at least 8 blocks of the class.
    const std::size_t count = std::max<std::size_t>(8, (64 * 1024) / stride);
    const std::size_t bytes = count * stride;
    auto *base = static_cast<unsigned char *>(::operator new(bytes));
    slabs_.push_back(base);
    ++stats_.slabs;
    stats_.bytesReserved += bytes;
    // Block 0 is returned to the caller; the rest go onto the free
    // list in address order.
    for (std::size_t i = 1; i < count; ++i) {
        auto *node = reinterpret_cast<FreeNode *>(base + i * stride +
                                                  kHeaderSize);
        node->next = freeLists_[cls];
        freeLists_[cls] = node;
    }
    return base + kHeaderSize;
}

} // namespace lynx::sim
