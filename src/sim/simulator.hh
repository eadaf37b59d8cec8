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
 * The calendar is two 4-ary implicit min-heaps of 24-byte keys
 * (when, seq, fn) plus a FIFO ready ring for zero-delay wakeups (see
 * docs/INTERNALS.md §1). An entry due at least kFarDelay past now()
 * goes into the far heap, every other one into the near heap, so the
 * long idle deadlines (client timeouts) stay out of the heap the data
 * path pops. The calendar's minimum is the smaller of the two tops,
 * so the split never changes the order. `fn` is a coroutine frame
 * address, resumed directly, or the address of an EventFn in a Pool
 * block (tagged in bit 0): the closure is built there once, in place,
 * fired there and the block recycled. The execution order is exactly
 * the documented contract: globally ascending (when, scheduling seq),
 * with zero-delay wakeups made at now() after every heap entry due at
 * now().
 *
 * Always-on work counters (scheduling into each heap and the ring,
 * closures, coroutine frames started) are registered as
 * "sim.engine". They are per simulator, count work rather than time,
 * and move no simulated time.
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
#include "stats.hh"
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
    Simulator();
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
        closureEvents_.add();
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
        return near_.size() + far_.size() + ready_.size();
    }

    /** Count one coroutine frame started on this simulator (a spawned
     *  Task or an awaited Co; see task.hh and co.hh). */
    void noteFrameStarted() { framesStarted_.add(); }

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

    /**
     * Entries due at least this far past now() are kept in the far
     * heap. The data path schedules within tens of microseconds; idle
     * deadlines, such as the closed-loop clients' 200 ms receive
     * timeouts, are far out and fire at most once per timeout span.
     * On echo_fanout the single heap this replaced held ~508 entries
     * at a mean pop, 480 of them due more than 1 ms out (INTERNALS
     * §1). The order of events does not depend on the value.
     */
    static constexpr Tick kFarDelay = milliseconds(1);

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
            // the heaps: FIFO ring, fired before the clock advances.
            readyEvents_.add();
            ready_.push_back(fn);
            return;
        }
        const Key k{when, nextSeq_++, fn};
        if (when - now_ >= kFarDelay) {
            farPushes_.add();
            push(far_, k);
        } else {
            nearPushes_.add();
            push(near_, k);
        }
    }

    /** Sift @p k up from a hole at the end of @p heap. */
    static void
    push(std::vector<Key> &heap, const Key &k)
    {
        std::size_t i = heap.size();
        heap.emplace_back();
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!before(k, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = k;
    }

    /** Destroy and free @p fn's closure unfired (teardown). */
    static void dropClosure(std::uintptr_t fn);
    static std::uintptr_t popMin(std::vector<Key> &heap);
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

    std::vector<Key> near_;           ///< due within kFarDelay
    std::vector<Key> far_;            ///< due kFarDelay or more out
    RingDeque<std::uintptr_t> ready_; ///< due at now(), FIFO

    std::vector<CoroEntry> liveCoroutines_;
    MetricsRegistry metrics_;
    SpanCollector *spans_ = nullptr;

    /** "sim.engine": scheduling work by kind (map nodes are stable,
     *  so the references stay valid). */
    StatSet engine_;
    Counter &nearPushes_ = engine_.counter("near_pushes");
    Counter &farPushes_ = engine_.counter("far_pushes");
    Counter &readyEvents_ = engine_.counter("ready_events");
    Counter &closureEvents_ = engine_.counter("closure_events");
    Counter &framesStarted_ = engine_.counter("frames_started");
};

} // namespace lynx::sim

#endif // LYNX_SIM_SIMULATOR_HH
