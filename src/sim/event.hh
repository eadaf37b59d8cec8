/**
 * @file
 * EventFn: the simulator's event callback type.
 *
 * A type-erased callable slot sized for the event calendar's hot path.
 * Unlike std::function it (a) stores any callable up to kInlineSize
 * bytes inline — large enough for a routed net::Message plus a
 * destination pointer — so scheduling a typical event never
 * heap-allocates, and (b) spills oversize callables into the slab
 * Pool rather than the system allocator, so even those recycle.
 *
 * An EventFn never moves: the calendar builds each callable in place
 * in a Pool block (emplace()), fires it there and recycles the
 * block. Dispatch goes through a per-type ops table
 * (invoke+destroy / destroy) instead of a virtual object.
 */

#ifndef LYNX_SIM_EVENT_HH
#define LYNX_SIM_EVENT_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "pool.hh"

namespace lynx::sim {

/** Small-buffer-optimized event callback, built and fired in place. */
class EventFn
{
  public:
    /** Inline payload capacity. 72 bytes fits the common delivery
     *  lambda: a 64-byte net::Message by value plus one pointer. */
    static constexpr std::size_t kInlineSize = 72;
    static constexpr std::size_t kAlign = 16;

    /** True when callables of type F are stored inline (no pool trip).
     *  Asserted by tests for the hot-path lambda shapes. */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= kInlineSize && alignof(F) <= kAlign;

    EventFn() = default;

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    /** Destroys a callable built but never fired. */
    ~EventFn()
    {
        if (ops_)
            ops_->destroy(buf_);
    }

    /** Build @p f in this (empty) slot. */
    template <typename F>
        requires std::is_invocable_r_v<void, std::remove_cvref_t<F> &>
    void
    emplace(F &&f)
    {
        using D = std::remove_cvref_t<F>;
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &inlineOps<D>;
        } else {
            void *mem = Pool::instance().allocate(sizeof(D));
            ::new (mem) D(std::forward<F>(f));
            ::new (static_cast<void *>(buf_)) void *(mem);
            ops_ = &heapOps<D>;
        }
    }

    /** Invoke, then destroy the callable — one dispatch instead of
     *  two on the calendar's fire path. Leaves *this empty. */
    void
    invokeAndReset()
    {
        const Ops *ops = ops_;
        ops_ = nullptr;
        ops->invokeDestroy(buf_);
    }

  private:
    struct Ops
    {
        /** Invoke + destroy fused (fire path). */
        void (*invokeDestroy)(void *self);
        void (*destroy)(void *self) noexcept;
    };

    template <typename D>
    static constexpr Ops inlineOps = {
        [](void *self) {
            D *p = std::launder(reinterpret_cast<D *>(self));
            (*p)();
            p->~D();
        },
        [](void *self) noexcept {
            std::launder(reinterpret_cast<D *>(self))->~D();
        },
    };

    template <typename D>
    static constexpr Ops heapOps = {
        [](void *self) {
            D *p = *static_cast<D **>(self);
            (*p)();
            p->~D();
            Pool::instance().deallocate(p);
        },
        [](void *self) noexcept {
            D *p = *static_cast<D **>(self);
            p->~D();
            Pool::instance().deallocate(p);
        },
    };

    alignas(kAlign) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

} // namespace lynx::sim

#endif // LYNX_SIM_EVENT_HH
