/**
 * @file
 * Coroutine tasks for the simulator.
 *
 * Model code is written as C++20 coroutines returning sim::Task.
 * A task is started with spawn(sim, fn(...)); it then runs until its
 * first suspension point and continues whenever the awaited condition
 * (a delay, a channel item, a semaphore, ...) is satisfied.
 *
 * Ownership: coroutine frames are owned by the simulator. A frame
 * destroys itself when the coroutine finishes; frames still suspended
 * when the Simulator is destroyed are destroyed by the simulator's
 * registry. The Task object returned by spawn() is a lightweight
 * join handle — co_await it to wait for completion — and may be
 * freely dropped for fire-and-forget tasks.
 */

#ifndef LYNX_SIM_TASK_HH
#define LYNX_SIM_TASK_HH

#include <coroutine>
#include <cstddef>
#include <memory>
#include <utility>

#include "logging.hh"
#include "pool.hh"
#include "simulator.hh"
#include "time.hh"

namespace lynx::sim {

/**
 * Base class for all simulator coroutine promises (Task and Co<T>).
 * Awaitables reach the owning simulator through it.
 *
 * Frames allocate through the slab Pool (promise-scoped operator
 * new/delete apply to the whole coroutine frame), so steady-state
 * coroutine churn — e.g. a Co<> per request — recycles instead of
 * hitting the heap. A Task's JoinState comes from the Pool too.
 */
struct PromiseBase
{
    Simulator *sim = nullptr;

    /** Registry index; maintained by the simulator (see
     *  Simulator::registerCoroutine). Only spawned Tasks register. */
    std::size_t regIdx = 0;

    static void *
    operator new(std::size_t n)
    {
        return Pool::instance().allocate(n);
    }

    static void
    operator delete(void *p) noexcept
    {
        Pool::instance().deallocate(p);
    }

    static void
    operator delete(void *p, std::size_t) noexcept
    {
        Pool::instance().deallocate(p);
    }
};

/** Constrains awaitables to coroutines whose promise knows its sim. */
template <typename P>
concept SimPromise = std::derived_from<P, PromiseBase>;

/** Join handle for a spawned coroutine task. */
class Task
{
  public:
    /** Completion state shared between the frame and join handles. */
    struct JoinState
    {
        bool done = false;
        std::coroutine_handle<> continuation;
    };

    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct promise_type : PromiseBase
    {
        std::shared_ptr<JoinState> join =
            std::allocate_shared<JoinState>(PoolAllocator<JoinState>{});

        ~promise_type()
        {
            if (sim)
                sim->unregisterCoroutine(regIdx);
        }

        Task get_return_object() { return Task(Handle::from_promise(*this)); }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }

            std::coroutine_handle<>
            await_suspend(Handle h) noexcept
            {
                auto join = h.promise().join;
                join->done = true;
                auto cont = join->continuation ? join->continuation
                                               : std::noop_coroutine();
                // The frame self-destructs here; anything reachable
                // only through it is gone before the joiner resumes.
                h.destroy();
                return cont;
            }

            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_void() {}

        void
        unhandled_exception()
        {
            LYNX_PANIC("unhandled exception escaped a sim::Task");
        }
    };

    Task() = default;

    Task(Task &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr)),
          join_(std::move(o.join_)), started_(o.started_)
    {}

    Task &
    operator=(Task &&o) noexcept
    {
        handle_ = std::exchange(o.handle_, nullptr);
        join_ = std::move(o.join_);
        started_ = o.started_;
        return *this;
    }

    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    ~Task()
    {
        // A task that was never spawned owns its (suspended) frame.
        if (handle_ && !started_)
            handle_.destroy();
    }

    /** @return whether the coroutine has run to completion. */
    bool done() const { return join_ && join_->done; }

    /** @return whether this handle refers to a coroutine at all. */
    bool valid() const { return join_ != nullptr; }

    /**
     * Begin execution on @p sim: the coroutine runs synchronously up
     * to its first suspension point. Called by spawn().
     */
    void
    start(Simulator &sim)
    {
        LYNX_ASSERT(handle_ && !started_, "task already started or empty");
        started_ = true;
        handle_.promise().sim = &sim;
        sim.registerCoroutine(handle_, handle_.promise().regIdx);
        sim.noteFrameStarted();
        auto h = std::exchange(handle_, nullptr);
        h.resume();
    }

    /** Awaiter for joining a task: co_await task. */
    struct JoinAwaiter
    {
        std::shared_ptr<JoinState> join;

        bool await_ready() const noexcept { return !join || join->done; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            LYNX_ASSERT(!join->continuation, "task joined twice");
            join->continuation = h;
        }

        void await_resume() const noexcept {}
    };

    JoinAwaiter operator co_await() const { return JoinAwaiter{join_}; }

  private:
    explicit Task(Handle h) : handle_(h), join_(h.promise().join) {}

    Handle handle_{};
    std::shared_ptr<JoinState> join_;
    bool started_ = false;
};

/**
 * Start coroutine task @p t on @p sim.
 * @return a join handle; drop it for fire-and-forget tasks.
 */
inline Task
spawn(Simulator &sim, Task t)
{
    t.start(sim);
    return t;
}

/**
 * Awaitable that suspends the current task for a fixed duration:
 * co_await sleep(30_us).
 */
struct SleepAwaiter
{
    Tick delay;

    bool await_ready() const noexcept { return false; }

    template <SimPromise P>
    void
    await_suspend(std::coroutine_handle<P> h) const
    {
        // Coroutine fast path: the handle goes straight into the
        // calendar, no lambda wrapper and no allocation.
        h.promise().sim->scheduleIn(delay, h);
    }

    void await_resume() const noexcept {}
};

/** @return an awaitable that delays the current task by @p d ticks. */
inline SleepAwaiter
sleep(Tick d)
{
    return SleepAwaiter{d};
}

/**
 * Awaitable exposing the owning simulator to the current task:
 * Simulator &sim = co_await currentSimulator().
 */
struct CurrentSimulatorAwaiter
{
    Simulator *sim = nullptr;

    bool await_ready() const noexcept { return false; }

    template <SimPromise P>
    bool
    await_suspend(std::coroutine_handle<P> h)
    {
        sim = h.promise().sim;
        return false; // resume immediately
    }

    Simulator &await_resume() const noexcept { return *sim; }
};

/** @return an awaitable yielding the simulator running this task. */
inline CurrentSimulatorAwaiter
currentSimulator()
{
    return {};
}

} // namespace lynx::sim

#endif // LYNX_SIM_TASK_HH
