/**
 * @file
 * The discrete-event simulation core.
 *
 * A Simulator owns the event calendar and the simulated clock. Model
 * code schedules plain callbacks (schedule()) or, more commonly, runs
 * as coroutine tasks (see task.hh) that suspend on awaitables built on
 * top of the calendar.
 *
 * Determinism: events with equal timestamps fire in scheduling
 * (FIFO) order, and all randomness flows through seeded Rng instances,
 * so a scenario replays identically run-to-run.
 *
 * The calendar is one 4-ary implicit min-heap of 24-byte keys
 * (when, seq, fn) plus a FIFO ready ring for zero-delay wakeups (see
 * docs/INTERNALS.md §1). `fn` is a coroutine frame address, resumed
 * directly, or the address of an EventFn in a Pool block (tagged in
 * bit 0): the closure is built there once, in place, fired there and
 * the block recycled. The execution order is exactly the documented
 * contract: globally ascending (when, scheduling seq), with zero-delay
 * wakeups made at now() after every heap entry due at now().
 */

#ifndef LYNX_SIM_SIMULATOR_HH
#define LYNX_SIM_SIMULATOR_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "event.hh"
#include "logging.hh"
#include "metrics.hh"
#include "pool.hh"
#include "ring.hh"
#include "time.hh"

namespace lynx::sim {

class SpanCollector;

/**
 * Discrete-event simulator: clock + event calendar + coroutine
 * registry.
 */
class Simulator
{
  public:
    Simulator() = default;
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return now_; }

    /**
     * Schedule callable @p fn to run at absolute time @p when.
     * @pre when >= now(). (Debug/sanitizer builds panic on violation;
     * release builds clamp to now() so the clock never runs backwards.)
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        auto *closure =
            ::new (Pool::instance().allocate(sizeof(EventFn))) EventFn;
        closure->emplace(std::forward<F>(fn));
        enqueue(when, reinterpret_cast<std::uintptr_t>(closure) | 1);
    }

    /** Coroutine fast path: resume @p h at time @p when, no lambda. */
    template <typename P>
    void
    schedule(Tick when, std::coroutine_handle<P> h)
    {
        const auto frame = reinterpret_cast<std::uintptr_t>(h.address());
        LYNX_DEBUG_ASSERT((frame & 1) == 0,
                          "coroutine frame address has its low bit set");
        enqueue(when, frame);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Coroutine fast path: resume @p h @p delay ticks from now. */
    template <typename P>
    void
    scheduleIn(Tick delay, std::coroutine_handle<P> h)
    {
        schedule(now_ + delay, h);
    }

    /**
     * Run until the calendar drains or stop() is called.
     * @return the final simulated time.
     */
    Tick run();

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline still fire), the calendar drains, or stop() is
     * called. The clock is advanced to @p deadline if the calendar
     * drained earlier.
     */
    Tick runUntil(Tick deadline);

    /** Request that run()/runUntil() return after the current event. */
    void stop() { stopped_ = true; }

    /** @return whether stop() was requested. */
    bool stopped() const { return stopped_; }

    /** Re-arm a stopped simulator so it can run again. */
    void reset_stop() { stopped_ = false; }

    /** Number of events executed so far (for tests/benchmarks). */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

    /** Events currently scheduled but not yet fired. */
    std::uint64_t
    pendingEvents() const
    {
        return heap_.size() + ready_.size();
    }

    /**
     * @{
     * @name Observability
     * The metrics registry is always present (registration happens at
     * component construction, so it is free on hot paths). The span
     * collector is optional: models stamp only when spans() is
     * non-null, making per-request tracing one pointer compare when
     * disabled. See span.hh / metrics.hh.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    SpanCollector *spans() const { return spans_; }
    void setSpanCollector(SpanCollector *collector) { spans_ = collector; }
    /** @} */

    /**
     * @{
     * @name Coroutine registry
     * Live task coroutines register here so that a simulator torn down
     * mid-scenario (e.g. servers still parked on channels) can destroy
     * them and avoid leaks. Registration hands the simulator a slot to
     * write the entry's index back into, making unregister O(1).
     * See task.hh.
     */
    void
    registerCoroutine(std::coroutine_handle<> h, std::size_t &idxSlot)
    {
        idxSlot = liveCoroutines_.size();
        liveCoroutines_.push_back(CoroEntry{h, &idxSlot});
    }

    void
    unregisterCoroutine(std::size_t idx)
    {
        if (tearingDown_)
            return;
        LYNX_DEBUG_ASSERT(idx < liveCoroutines_.size(),
                          "bad coroutine registry index");
        liveCoroutines_[idx] = liveCoroutines_.back();
        *liveCoroutines_[idx].idxSlot = idx;
        liveCoroutines_.pop_back();
    }

    std::size_t liveCoroutines() const { return liveCoroutines_.size(); }
    /** @} */

  private:
    /** One calendar entry. `fn` is a coroutine frame address or, with
     *  bit 0 set, a Pool-held EventFn (both are 16-byte aligned, so
     *  bit 0 is otherwise clear). */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uintptr_t fn;
    };

    static bool
    before(const Key &a, const Key &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    static EventFn *
    closureAt(std::uintptr_t fn)
    {
        return reinterpret_cast<EventFn *>(fn & ~std::uintptr_t(1));
    }

    void
    enqueue(Tick when, std::uintptr_t fn)
    {
        LYNX_DEBUG_ASSERT(when >= now_, "scheduling into the past");
        if (when <= now_) {
            // Zero-delay wakeups (channel handoffs, doorbells) skip
            // the heap: FIFO ring, fired before the clock advances.
            ready_.push_back(fn);
            return;
        }
        // Sift up from a hole at the end.
        std::size_t i = heap_.size();
        heap_.emplace_back();
        const Key k{when, nextSeq_++, fn};
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!before(k, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = k;
    }

    /** Destroy and free @p fn's closure unfired (teardown). */
    static void dropClosure(std::uintptr_t fn);
    std::uintptr_t popMin();
    void fire(std::uintptr_t fn);
    void runLoop(Tick deadline);

    struct CoroEntry
    {
        std::coroutine_handle<> h;
        std::size_t *idxSlot; ///< promise-side back-reference
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsExecuted_ = 0;
    bool stopped_ = false;
    bool tearingDown_ = false;

    std::vector<Key> heap_;           ///< 4-ary min-heap
    RingDeque<std::uintptr_t> ready_; ///< due at now(), FIFO

    std::vector<CoroEntry> liveCoroutines_;
    MetricsRegistry metrics_;
    SpanCollector *spans_ = nullptr;
};

} // namespace lynx::sim

#endif // LYNX_SIM_SIMULATOR_HH
