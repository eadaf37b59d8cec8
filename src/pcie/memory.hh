/**
 * @file
 * BAR-exposed device memory.
 *
 * A DeviceMemory is a byte array standing in for the part of an
 * accelerator's memory that the device exposes on the PCIe bus via
 * its Base Address Register (the mechanism GPUDirect RDMA relies on,
 * paper §4.4). Message queues live here as real bytes: the SmartNIC
 * writes them remotely via RDMA, and the accelerator-side I/O library
 * reads them locally.
 *
 * Watchpoints let simulated pollers sleep instead of busy-spinning:
 * a write overlapping a watched range fires its callback, which wakes
 * the poller; the poller then charges itself the discovery latency
 * real polling would have cost. (Real hardware polls; the simulation
 * is event-driven. This "virtual polling" keeps timing faithful
 * without generating unbounded idle events; see DESIGN.md.)
 *
 * A write's notification cost is O(log W + hits) in the number W of
 * watchpoints: one accelerator's memory carries three per mqueue, so
 * a 240-mqueue server must not scan all 720 on every doorbell.
 */

#ifndef LYNX_PCIE_MEMORY_HH
#define LYNX_PCIE_MEMORY_HH

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/logging.hh"

namespace lynx::pcie {

/** A contiguous, bounds-checked device memory region. */
class DeviceMemory
{
  public:
    /** Callback invoked after a write overlapping its watched range. */
    using WriteWatcher = std::function<void(std::uint64_t off,
                                            std::uint64_t len)>;

    /** Backed by anonymous pages: zero-filled by the kernel on first
     *  touch, so a large BAR costs memory only where it is used. */
    DeviceMemory(std::string name, std::uint64_t size)
        : name_(std::move(name)), size_(size), bytes_(mapZeroed(size))
    {}

    DeviceMemory(const DeviceMemory &) = delete;
    DeviceMemory &operator=(const DeviceMemory &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return region size in bytes. */
    std::uint64_t size() const { return size_; }

    /** Copy @p data into the region at @p off; fires watchpoints. */
    void
    write(std::uint64_t off, std::span<const std::uint8_t> data)
    {
        checkRange(off, data.size());
        std::copy(data.begin(), data.end(), bytes_.get() + off);
        notify(off, data.size());
    }

    /** Copy @p out.size() bytes starting at @p off into @p out. */
    void
    read(std::uint64_t off, std::span<std::uint8_t> out) const
    {
        checkRange(off, out.size());
        std::copy_n(bytes_.get() + off, out.size(), out.begin());
    }

    /** Write a little-endian 32-bit word. */
    void
    writeU32(std::uint64_t off, std::uint32_t v)
    {
        std::uint8_t b[4] = {
            static_cast<std::uint8_t>(v),
            static_cast<std::uint8_t>(v >> 8),
            static_cast<std::uint8_t>(v >> 16),
            static_cast<std::uint8_t>(v >> 24),
        };
        write(off, b);
    }

    /** Read a little-endian 32-bit word. */
    std::uint32_t
    readU32(std::uint64_t off) const
    {
        std::uint8_t b[4];
        read(off, b);
        return static_cast<std::uint32_t>(b[0]) |
               (static_cast<std::uint32_t>(b[1]) << 8) |
               (static_cast<std::uint32_t>(b[2]) << 16) |
               (static_cast<std::uint32_t>(b[3]) << 24);
    }

    /** Write a little-endian 64-bit word. */
    void
    writeU64(std::uint64_t off, std::uint64_t v)
    {
        writeU32(off, static_cast<std::uint32_t>(v));
        writeU32(off + 4, static_cast<std::uint32_t>(v >> 32));
    }

    /** Read a little-endian 64-bit word. */
    std::uint64_t
    readU64(std::uint64_t off) const
    {
        return static_cast<std::uint64_t>(readU32(off)) |
               (static_cast<std::uint64_t>(readU32(off + 4)) << 32);
    }

    /** @return a read-only view of [off, off+len). */
    std::span<const std::uint8_t>
    view(std::uint64_t off, std::uint64_t len) const
    {
        checkRange(off, len);
        return {bytes_.get() + off, len};
    }

    /**
     * Watch writes overlapping [off, off+len).
     * @return an id usable with unwatch().
     */
    std::uint64_t
    watch(std::uint64_t off, std::uint64_t len, WriteWatcher fn)
    {
        checkRange(off, len);
        // Ids only grow, so inserting after every equal offset keeps
        // the index sorted by (off, id).
        auto pos = std::upper_bound(
            watchers_.begin(), watchers_.end(), off,
            [](std::uint64_t o, const Watcher &w) { return o < w.off; });
        watchers_.insert(pos, {nextWatchId_, off, len,
                               std::make_shared<const WriteWatcher>(
                                   std::move(fn))});
        maxLen_ = std::max(maxLen_, len);
        return nextWatchId_++;
    }

    /** Remove the watchpoint @p id. */
    void
    unwatch(std::uint64_t id)
    {
        std::erase_if(watchers_, [id](const Watcher &w) {
            return w.id == id;
        });
    }

  private:
    struct Watcher
    {
        std::uint64_t id;
        std::uint64_t off;
        std::uint64_t len;
        /** Shared so a notify() snapshot keeps it alive across an
         *  unwatch() by an earlier callback. */
        std::shared_ptr<const WriteWatcher> fn;
    };

    struct Unmap
    {
        std::uint64_t size;

        void
        operator()(std::uint8_t *p) const noexcept
        {
            ::munmap(p, size);
        }
    };

    static std::unique_ptr<std::uint8_t[], Unmap>
    mapZeroed(std::uint64_t size)
    {
        if (size == 0)
            return {nullptr, Unmap{0}};
        void *p = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        LYNX_ASSERT(p != MAP_FAILED, "cannot map ", size,
                    " bytes of device memory");
        return {static_cast<std::uint8_t *>(p), Unmap{size}};
    }

    void
    checkRange(std::uint64_t off, std::uint64_t len) const
    {
        // Written so that no sum can wrap past 2^64.
        LYNX_ASSERT(len <= size_ && off <= size_ - len,
                    "access of ", len, " bytes at ", off,
                    " out of bounds of ", name_, " (size ", size_, ")");
    }

    /**
     * Fire, in registration order, every watcher whose range overlaps
     * [off, off+len). The hits are snapshotted before the first call:
     * a watcher added by a callback does not fire for this write, and
     * one removed by an earlier callback still does.
     */
    void
    notify(std::uint64_t off, std::uint64_t len)
    {
        // No watched range is longer than maxLen_, so a watcher starting
        // at or below off - maxLen_ ends at or before off.
        const auto overlaps = [off, len](const Watcher &w) {
            return off < w.off + w.len && w.off < off + len;
        };
        const auto first = std::partition_point(
            watchers_.begin(), watchers_.end(),
            [this, off](const Watcher &w) { return w.off + maxLen_ <= off; });
        const auto last = std::partition_point(
            first, watchers_.end(),
            [off, len](const Watcher &w) { return w.off < off + len; });
        const auto n =
            static_cast<std::size_t>(std::count_if(first, last, overlaps));
        if (n == 0)
            return;

        // A doorbell write hits one or two watchers: snapshot those on
        // the stack, and only a wider write on the heap.
        struct Hit
        {
            std::uint64_t id;
            std::shared_ptr<const WriteWatcher> fn;
        };
        constexpr std::size_t kInlineHits = 4;
        Hit local[kInlineHits];
        std::vector<Hit> spill(n > kInlineHits ? n : 0);
        Hit *hits = n > kInlineHits ? spill.data() : local;
        std::size_t i = 0;
        for (auto it = first; it != last; ++it) {
            if (overlaps(*it))
                hits[i++] = {it->id, it->fn};
        }
        std::sort(hits, hits + n, [](const Hit &a, const Hit &b) {
            return a.id < b.id;
        });
        for (i = 0; i < n; ++i)
            (*hits[i].fn)(off, len);
    }

    std::string name_;
    std::uint64_t size_;
    std::unique_ptr<std::uint8_t[], Unmap> bytes_;

    /** Watchpoints sorted by (off, id). */
    std::vector<Watcher> watchers_;

    /** No watched range is longer: bounds the index search below a
     *  write. It never shrinks; a stale bound only widens the search. */
    std::uint64_t maxLen_ = 0;
    std::uint64_t nextWatchId_ = 0;
};

} // namespace lynx::pcie

#endif // LYNX_PCIE_MEMORY_HH
