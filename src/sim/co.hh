/**
 * @file
 * Co<T>: a lazy awaitable coroutine, the building block for async
 * model methods.
 *
 * Where Task is a top-level, fire-and-forget activity owned by the
 * simulator, Co<T> is a *subroutine*: it starts only when awaited,
 * transfers control back to its awaiter when done, and its frame is
 * owned by the Co object (usually a temporary inside the awaiting
 * coroutine's frame), so teardown recurses naturally.
 *
 *     sim::Co<int> Nic::transmit(Message m) { ... co_return n; }
 *     ...
 *     int n = co_await nic.transmit(std::move(m));
 *
 * A default-constructed Co<void> holds no coroutine, and awaiting it
 * completes at once: a plain function returning Co<void> can return
 * one when it has nothing to wait for, and then starts no frame.
 */

#ifndef LYNX_SIM_CO_HH
#define LYNX_SIM_CO_HH

#include <coroutine>
#include <optional>
#include <utility>

#include "logging.hh"
#include "task.hh"

namespace lynx::sim {

namespace detail {

/** Shared promise behaviour for Co<T> and Co<void>. */
template <typename Promise>
struct CoPromiseBase : PromiseBase
{
    std::coroutine_handle<> continuation;

    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            // Control returns to the awaiter; the frame itself is
            // destroyed later by the owning Co object.
            return h.promise().continuation;
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }

    void
    unhandled_exception()
    {
        LYNX_PANIC("unhandled exception escaped a sim::Co");
    }
};

} // namespace detail

/**
 * Lazy awaitable coroutine returning T (or void).
 *
 * @tparam T result type; must be movable (or void).
 */
template <typename T>
class [[nodiscard]] Co
{
  public:
    struct promise_type : detail::CoPromiseBase<promise_type>
    {
        std::optional<T> value;

        Co
        get_return_object()
        {
            return Co(std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            value.emplace(std::forward<U>(v));
        }
    };

    using Handle = std::coroutine_handle<promise_type>;

    Co() = default;
    explicit Co(Handle h) : handle_(h) {}

    Co(Co &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Co &
    operator=(Co &&o) noexcept
    {
        if (handle_)
            handle_.destroy();
        handle_ = std::exchange(o.handle_, nullptr);
        return *this;
    }

    Co(const Co &) = delete;
    Co &operator=(const Co &) = delete;

    ~Co()
    {
        if (handle_)
            handle_.destroy();
    }

    /** @return whether this Co holds a coroutine. */
    explicit operator bool() const noexcept { return bool(handle_); }

    /** Awaiter that starts the child and resumes the parent at end. */
    struct Awaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return false; }

        template <SimPromise P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> parent)
        {
            handle.promise().sim = parent.promise().sim;
            handle.promise().continuation = parent;
            handle.promise().sim->noteFrameStarted();
            return handle; // symmetric transfer: start the child
        }

        T
        await_resume()
        {
            LYNX_ASSERT(handle.promise().value.has_value(),
                        "Co finished without a value");
            return std::move(*handle.promise().value);
        }
    };

    Awaiter operator co_await() { return Awaiter{handle_}; }

  private:
    Handle handle_{};
};

/** Specialization for coroutines that produce no value. */
template <>
class [[nodiscard]] Co<void>
{
  public:
    struct promise_type : detail::CoPromiseBase<promise_type>
    {
        Co
        get_return_object()
        {
            return Co(std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() {}
    };

    using Handle = std::coroutine_handle<promise_type>;

    Co() = default;
    explicit Co(Handle h) : handle_(h) {}

    Co(Co &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Co &
    operator=(Co &&o) noexcept
    {
        if (handle_)
            handle_.destroy();
        handle_ = std::exchange(o.handle_, nullptr);
        return *this;
    }

    Co(const Co &) = delete;
    Co &operator=(const Co &) = delete;

    ~Co()
    {
        if (handle_)
            handle_.destroy();
    }

    /** @return whether this Co holds a coroutine. */
    explicit operator bool() const noexcept { return bool(handle_); }

    /** Awaiter that starts the child and resumes the parent at end;
     *  an empty Co (no coroutine) completes at once. */
    struct Awaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return !handle; }

        template <SimPromise P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> parent)
        {
            handle.promise().sim = parent.promise().sim;
            handle.promise().continuation = parent;
            handle.promise().sim->noteFrameStarted();
            return handle;
        }

        void await_resume() {}
    };

    Awaiter operator co_await() { return Awaiter{handle_}; }

  private:
    Handle handle_{};
};

} // namespace lynx::sim

#endif // LYNX_SIM_CO_HH
