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
 * The calendar is a hierarchical timing wheel (see docs/INTERNALS.md):
 * five levels of 64 buckets each, covering ~1.07 simulated seconds of
 * horizon at nanosecond resolution, with a (when, seq) min-heap
 * catching farther-future events. Schedule and fire are O(1) on the
 * hot path, zero-delay wakeups bypass the wheel through a ready ring,
 * and callbacks are EventFn (inline small-buffer storage) so the
 * common event never heap-allocates. The execution order is exactly
 * the documented contract: globally ascending (when, scheduling seq).
 */

#ifndef LYNX_SIM_SIMULATOR_HH
#define LYNX_SIM_SIMULATOR_HH

#include <bit>
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
        LYNX_DEBUG_ASSERT(when >= now_, "scheduling into the past");
        if (when <= now_) {
            // Zero-delay fast path: build the callable directly in
            // the ready-ring slot, skipping one EventFn relocation.
            ready_.emplace_back(now_, nextSeq_++, std::forward<F>(fn));
            ++pendingCount_;
        } else {
            scheduleEvent(when, EventFn(std::forward<F>(fn)));
        }
    }

    /** Coroutine fast path: resume @p h at time @p when, no lambda. */
    template <typename P>
    void
    schedule(Tick when, std::coroutine_handle<P> h)
    {
        scheduleEvent(when, EventFn::resume(h));
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
        scheduleEvent(now_ + delay, EventFn::resume(h));
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
    std::uint64_t pendingEvents() const { return pendingCount_; }

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
    struct PendingEvent
    {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

    /**
     * Timing-wheel geometry: kLevels levels of 64 buckets; a level-L
     * bucket spans 2^(6L) ticks. An event lives at the lowest level
     * whose bucket span still distinguishes it from now(): the level
     * of the highest bit in which `when` and `now` differ. Beyond the
     * wheel horizon (2^30 ticks, ~1.07 s) events wait in a (when, seq)
     * min-heap and cascade in when their top-level block arrives.
     */
    static constexpr int kLevelBits = 6;
    static constexpr int kLevels = 5;
    static constexpr std::size_t kBuckets = std::size_t(1) << kLevelBits;
    static constexpr int kTopBits = kLevelBits * kLevels;

    /** Bucket storage comes from the slab pool: a rarely-touched
     *  high-level bucket growing mid-run recycles a warm pool block
     *  instead of calling the heap from the event hot loop. */
    using Bucket = std::vector<PendingEvent, PoolAllocator<PendingEvent>>;

    void
    scheduleEvent(Tick when, EventFn fn)
    {
        LYNX_DEBUG_ASSERT(when >= now_, "scheduling into the past");
        if (when <= now_) {
            // Zero-delay wakeups (channel handoffs, doorbells) skip
            // the wheel: FIFO ring, fired before the clock advances.
            ready_.emplace_back(now_, nextSeq_++, std::move(fn));
        } else {
            place(PendingEvent{when, nextSeq_++, std::move(fn)});
        }
        ++pendingCount_;
    }

    /** File a future event into its wheel bucket (or the overflow). */
    void
    place(PendingEvent ev)
    {
        const Tick x = ev.when ^ now_;
        // Highest differing bit picks the level; x == 0 only happens
        // for cascaded events landing at exactly now().
        const int hb = x ? 63 - std::countl_zero(x) : 0;
        const int level = hb / kLevelBits;
        if (level >= kLevels) {
            pushOverflow(std::move(ev));
            return;
        }
        const std::size_t idx =
            (ev.when >> (kLevelBits * level)) & (kBuckets - 1);
        wheel_[level][idx].push_back(std::move(ev));
        occupied_[level] |= std::uint64_t(1) << idx;
    }

    void pushOverflow(PendingEvent ev);
    bool advance(Tick deadline);
    void collectBucket(std::size_t idx);
    void cascade(int level, std::size_t idx);
    void drainOverflow();
    void runLoop(Tick deadline);

    void
    fire(PendingEvent &e)
    {
        ++eventsExecuted_;
        --pendingCount_;
        e.fn.invokeAndReset();
    }

    struct CoroEntry
    {
        std::coroutine_handle<> h;
        std::size_t *idxSlot; ///< promise-side back-reference
    };

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t eventsExecuted_ = 0;
    std::uint64_t pendingCount_ = 0;
    bool stopped_ = false;
    bool tearingDown_ = false;

    Bucket wheel_[kLevels][kBuckets];
    std::uint64_t occupied_[kLevels] = {};
    Bucket overflow_; ///< (when, seq) min-heap
    RingDeque<PendingEvent> ready_;      ///< events due at now()
    Bucket exec_;                        ///< bucket being fired
    std::size_t execPos_ = 0;
    Bucket cascadeBuf_; ///< scratch for redistributing a bucket

    std::vector<CoroEntry> liveCoroutines_;
    MetricsRegistry metrics_;
    SpanCollector *spans_ = nullptr;
};

} // namespace lynx::sim

#endif // LYNX_SIM_SIMULATOR_HH
