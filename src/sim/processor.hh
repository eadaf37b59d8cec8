/**
 * @file
 * A CPU core as a serially-shared simulation resource.
 *
 * Model code charges work to a core with co_await core.exec(cost):
 * the task queues FIFO for the core, holds it for the scaled cost,
 * and releases it. Costs are expressed in *reference* nanoseconds
 * (time the work takes on a baseline Xeon core); slower processors
 * (e.g. Bluefield's ARM A72) scale them with speedFactor, and
 * cache-contention models scale them dynamically with contention().
 *
 * exec() is an awaiter, not a coroutine, so charging a core starts no
 * frame. An idle core charges the caller at once and schedules the
 * caller's own handle at now + cost. A busy core queues the caller
 * FIFO. A release that finds waiters makes one zero-delay wakeup of
 * the core's grant step, and the grant step charges the front waiter
 * when it fires: the cost is scaled then, so a contention change
 * between a release and its grant applies to the grant. The caller
 * releases the core as it resumes, after execThen's hook.
 */

#ifndef LYNX_SIM_PROCESSOR_HH
#define LYNX_SIM_PROCESSOR_HH

#include <coroutine>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "logging.hh"
#include "ring.hh"
#include "simulator.hh"
#include "task.hh"
#include "time.hh"

namespace lynx::sim {

/** One CPU core: runs at most one piece of work at a time. */
class Core
{
  public:
    /**
     * @param sim owning simulator.
     * @param name diagnostic name, e.g. "bluefield.arm3".
     * @param speedFactor multiplier applied to reference costs
     *        (>1 means slower than the reference Xeon core).
     */
    Core(Simulator &sim, std::string name, double speedFactor = 1.0)
        : sim_(sim), name_(std::move(name)), speedFactor_(speedFactor),
          grantStep_(grantLoop().handle)
    {}

    ~Core() { grantStep_.destroy(); }

    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return static speed multiplier. */
    double speedFactor() const { return speedFactor_; }

    /** @return dynamic contention multiplier (≥1). */
    double contention() const { return contention_; }

    /** Set the dynamic contention multiplier (LLC model hook). */
    void
    setContention(double factor)
    {
        LYNX_ASSERT(factor >= 1.0, "contention factor below 1");
        contention_ = factor;
    }

    /** @return total ticks this core has spent executing work. */
    Tick busyTime() const { return busyTime_; }

    /** @return fraction of [0, elapsed] spent busy. */
    double
    utilization(Tick elapsed) const
    {
        return elapsed ? static_cast<double>(busyTime_) /
                             static_cast<double>(elapsed)
                       : 0.0;
    }

    /** @return ticks that @p referenceCost takes on this core now. */
    Tick
    scaledCost(Tick referenceCost) const
    {
        return static_cast<Tick>(static_cast<double>(referenceCost) *
                                 speedFactor_ * contention_);
    }

    /** Awaiter of exec() and execThen(): charges the awaiting
     *  coroutine, then runs @p Fn and releases the core as it
     *  resumes. */
    template <typename Fn>
    struct [[nodiscard]] ExecAwaiter
    {
        Core &core;
        Tick referenceCost;
        [[no_unique_address]] Fn fn;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            core.acquire(h, referenceCost);
        }

        void
        await_resume()
        {
            fn();
            core.release();
        }
    };

    /** No hook: plain exec(). */
    struct NoHook
    {
        void operator()() const noexcept {}
    };

    /**
     * Execute @p referenceCost worth of work on this core: queue FIFO
     * behind earlier work, occupy the core for the scaled duration.
     */
    ExecAwaiter<NoHook>
    exec(Tick referenceCost)
    {
        return {*this, referenceCost, {}};
    }

    /**
     * Execute work and then run @p fn while still holding the core
     * (for operations whose effect must be atomic with the charge).
     */
    template <typename Fn>
    ExecAwaiter<Fn>
    execThen(Tick referenceCost, Fn fn)
    {
        return {*this, referenceCost, std::move(fn)};
    }

  private:
    /** A caller queued on a busy core. */
    struct Waiter
    {
        std::coroutine_handle<> handle;
        Tick referenceCost;
    };

    /** The grant step's coroutine. Its frame is made with the core
     *  (so no grant allocates) and destroyed with it; it is never
     *  registered with the simulator. */
    struct GrantStep
    {
        struct promise_type : PromiseBase
        {
            GrantStep
            get_return_object()
            {
                return {std::coroutine_handle<promise_type>::from_promise(
                    *this)};
            }

            std::suspend_always initial_suspend() noexcept { return {}; }
            std::suspend_always final_suspend() noexcept { return {}; }
            void return_void() {}

            void
            unhandled_exception()
            {
                LYNX_PANIC("unhandled exception escaped a Core grant");
            }
        };

        std::coroutine_handle<promise_type> handle;
    };

    /** Each resume charges the front waiter, then parks again. */
    GrantStep
    grantLoop()
    {
        for (;;) {
            const Waiter w = waiters_.pop_front();
            charge(w.handle, w.referenceCost);
            co_await std::suspend_always{};
        }
    }

    void
    acquire(std::coroutine_handle<> h, Tick referenceCost)
    {
        if (busy_) {
            waiters_.push_back({h, referenceCost});
            return;
        }
        busy_ = true;
        charge(h, referenceCost);
    }

    /** Occupy the core for @p referenceCost, scaled now; @p h resumes
     *  when the work is done. */
    void
    charge(std::coroutine_handle<> h, Tick referenceCost)
    {
        const Tick cost = scaledCost(referenceCost);
        busyTime_ += cost;
        sim_.scheduleIn(cost, h);
    }

    void
    release()
    {
        if (waiters_.empty()) {
            busy_ = false;
            return;
        }
        // The core passes to the front waiter through a zero-delay
        // hop. The waiter is charged when the hop fires, after what
        // the releaser still does at this tick, so its wakeup takes
        // its seq, and its cost the contention, at that point.
        sim_.scheduleIn(Tick(0), grantStep_);
    }

    Simulator &sim_;
    std::string name_;
    double speedFactor_;
    double contention_ = 1.0;
    Tick busyTime_ = 0;
    bool busy_ = false;
    RingDeque<Waiter> waiters_;
    std::coroutine_handle<GrantStep::promise_type> grantStep_;
};

/** A named group of identical cores (a socket or an SNIC complex). */
class CorePool
{
  public:
    /** Create @p n cores named "<prefix>.<i>". */
    CorePool(Simulator &sim, const std::string &prefix, std::size_t n,
             double speedFactor = 1.0)
    {
        for (std::size_t i = 0; i < n; ++i) {
            cores_.push_back(std::make_unique<Core>(
                sim, prefix + "." + std::to_string(i), speedFactor));
        }
    }

    /** @return number of cores. */
    std::size_t size() const { return cores_.size(); }

    /** @return core @p i. */
    Core &operator[](std::size_t i) { return *cores_.at(i); }
    const Core &operator[](std::size_t i) const { return *cores_.at(i); }

    /** Set the contention multiplier on every core. */
    void
    setContention(double factor)
    {
        for (auto &c : cores_)
            c->setContention(factor);
    }

  private:
    std::vector<std::unique_ptr<Core>> cores_;
};

} // namespace lynx::sim

#endif // LYNX_SIM_PROCESSOR_HH
