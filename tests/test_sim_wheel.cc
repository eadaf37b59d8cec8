/**
 * @file
 * Black-box order tests for the event calendar, plus closure storage.
 *
 * The reference model is the engine's documented contract itself: all
 * events fire in globally ascending (when, scheduling-seq) order, and
 * zero-delay wakeups made at now() fire FIFO after every event already
 * due at now(). A randomized scheduler front-end drives the calendar
 * with dense equal timestamps, wide and far-future deltas, zero-delay
 * wakeups, runUntil() parks and events scheduled from inside running
 * events, and checks the observed execution order against a sorted
 * reference trace. (The `TimingWheel` suite keeps the name of the
 * calendar it was written against; the shapes that once stressed that
 * wheel's cascades and park repair stay as order tests.)
 *
 * The NearFar tests aim at the split between the near and the far
 * heap (Simulator::kFarDelay): equal timestamps whose entries sit in
 * different heaps, and traces whose delays straddle the threshold.
 *
 * The ClosureStorage tests cover where scheduled closures live: Pool
 * blocks that stay put while a running closure schedules thousands
 * more, and teardown that destroys each pending closure exactly once,
 * in both heaps and the ready ring.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "sim/time.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::sim::Simulator;
using lynx::sim::Tick;

namespace {

/** One scheduled event: (when, seq) must be the execution order. */
struct Obs
{
    Tick when;
    std::uint64_t id;

    bool
    operator<(const Obs &o) const
    {
        return when != o.when ? when < o.when : id < o.id;
    }

    bool operator==(const Obs &o) const = default;
};

/** Schedule @p count events at random offsets drawn from @p maxDelta,
 *  some rescheduling children from inside their handler, and check
 *  the global firing order. */
void
randomOrderCheck(std::uint64_t seed, int count, Tick maxDelta,
                 int childrenEvery)
{
    Simulator s;
    sim::Rng rng(seed);
    std::vector<Obs> fired;
    std::vector<Obs> expected;
    std::uint64_t nextId = 0;

    // Recursive scheduling: handlers spawn children at future (or
    // equal: delta may be 0) times, exercising in-event placement.
    struct Ctx
    {
        Simulator &s;
        sim::Rng &rng;
        std::vector<Obs> &fired;
        std::vector<Obs> &expected;
        std::uint64_t &nextId;
        Tick maxDelta;
        int childrenEvery;
    } ctx{s, rng, fired, expected, nextId, maxDelta, childrenEvery};

    struct Spawner
    {
        static void
        add(Ctx &c, Tick when, int depth)
        {
            const std::uint64_t id = c.nextId++;
            c.expected.push_back({when, id});
            c.s.schedule(when, [&c, id, depth] {
                c.fired.push_back({c.s.now(), id});
                if (depth > 0 && id % 2 == 0) {
                    const Tick delta = c.rng.below(
                        static_cast<std::uint64_t>(c.maxDelta));
                    add(c, c.s.now() + delta, depth - 1);
                }
            });
        }
    };

    for (int i = 0; i < count; ++i) {
        const Tick when = rng.below(static_cast<std::uint64_t>(maxDelta));
        Spawner::add(ctx, when, i % childrenEvery == 0 ? 2 : 0);
    }
    s.run();

    ASSERT_EQ(fired.size(), expected.size());
    std::stable_sort(expected.begin(), expected.end());
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(s.eventsExecuted(), fired.size());
    EXPECT_EQ(s.pendingEvents(), 0u);
}

TEST(TimingWheel, RandomizedOrderLevel0Dense)
{
    // Deltas within one 64-tick block: pure L0 traffic, heavy FIFO
    // tie-breaking at equal timestamps.
    randomOrderCheck(/*seed=*/1, /*count=*/2000, /*maxDelta=*/64,
                     /*childrenEvery=*/3);
}

TEST(TimingWheel, RandomizedOrderMultiLevel)
{
    // Deltas spanning levels 0-3: exercises cascades.
    randomOrderCheck(2, 2000, Tick(1) << 20, 4);
}

TEST(TimingWheel, RandomizedOrderWithOverflow)
{
    // Deltas beyond the 2^30-tick wheel horizon: overflow heap
    // drains back through the wheel.
    randomOrderCheck(3, 1000, Tick(1) << 34, 5);
}

TEST(TimingWheel, EqualTimestampStormIsFifo)
{
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 500; ++i)
        s.schedule(100, [&order, i] { order.push_back(i); });
    for (int i = 500; i < 1000; ++i)
        s.schedule(50, [&order, i] { order.push_back(i); });
    s.run();
    ASSERT_EQ(order.size(), 1000u);
    // All t=50 events (ids 500..999) first, each group in FIFO order.
    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], 500 + i);
        EXPECT_EQ(order[static_cast<std::size_t>(500 + i)], i);
    }
}

TEST(TimingWheel, ZeroDelaySelfSchedulingStaysAtNow)
{
    // scheduleIn(0) from inside a handler goes through the ready
    // ring; time must not move and order must stay FIFO.
    Simulator s;
    std::vector<int> order;
    s.schedule(10, [&] {
        s.scheduleIn(0, [&] { order.push_back(1); });
        s.scheduleIn(0, [&] {
            order.push_back(2);
            s.scheduleIn(0, [&] { order.push_back(3); });
        });
        order.push_back(0);
    });
    s.schedule(11, [&] { order.push_back(4); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(s.now(), 11u);
}

TEST(TimingWheel, ReadyRingInterleavesWithEqualTimestampBucket)
{
    // Events A,B scheduled for t=5 up front; A schedules C at t=5
    // (zero delay) while firing. C's seq is larger than B's, so the
    // order must be A, B, C.
    Simulator s;
    std::vector<char> order;
    s.schedule(5, [&] {
        order.push_back('A');
        s.scheduleIn(0, [&] { order.push_back('C'); });
    });
    s.schedule(5, [&] { order.push_back('B'); });
    s.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(TimingWheel, RunUntilStopsBeforeFarFutureEvent)
{
    Simulator s;
    bool fired = false;
    s.schedule((Tick(1) << 31) + 7, [&] { fired = true; }); // overflow
    s.runUntil(1000);
    EXPECT_FALSE(fired);
    EXPECT_EQ(s.now(), 1000u);
    // Resume across the horizon: the event still fires exactly once,
    // at its exact timestamp.
    s.runUntil((Tick(1) << 31) + 7);
    EXPECT_TRUE(fired);
    EXPECT_EQ(s.now(), (Tick(1) << 31) + 7);
}

TEST(TimingWheel, RunUntilBoundaryIsInclusive)
{
    Simulator s;
    int hits = 0;
    s.schedule(100, [&] { ++hits; });
    s.schedule(101, [&] { ++hits; });
    s.runUntil(100);
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(s.now(), 100u);
    s.runUntil(101);
    EXPECT_EQ(hits, 2);
}

TEST(TimingWheel, ParkInsideStaleHighLevelBucketThenCascade)
{
    // A lone far-future event takes advance()'s express lane, which
    // leaves it filed at a high wheel level when the deadline stops
    // short of it — and runUntil() then parks the clock *inside* that
    // bucket's block (event at 5000 lives in level-2 block
    // [4096, 8191]; the clock parks at 4500). The next advance() must
    // cascade that stale bucket — whose raw block base (4096) is
    // behind the clock — without moving time backwards, and both
    // events must still fire at their exact ticks. Any caller that
    // steps a simulation through successive runUntil() deadlines
    // (a bench sampling a run in slices, a test driving phases) hits
    // this shape whenever a deadline lands mid-block; the
    // debug-assert lanes abort here without the clamp.
    Simulator s;
    std::vector<Tick> at;
    s.schedule(5000, [&] { at.push_back(s.now()); });
    s.runUntil(4500);
    EXPECT_TRUE(at.empty());
    EXPECT_EQ(s.now(), 4500u);
    // A second event defeats the express lane, forcing the slow path
    // to walk the level scan over the stale current-index bucket.
    s.schedule(4800, [&] { at.push_back(s.now()); });
    s.runUntil(6000);
    EXPECT_EQ(at, (std::vector<Tick>{4800, 5000}));
    EXPECT_EQ(s.now(), 6000u);
}

TEST(TimingWheel, StaleBucketIsNotShadowedByLaterLowLevelEvent)
{
    // The nastier variant of the stale-bucket shape: after the
    // mid-block park, a *later* event files at level 1 (block base
    // 6976, beyond the next deadline). The level scan checks level 1
    // before level 2, so without the park repair the stale level-2
    // bucket's earlier event (5000) was shadowed and silently skipped
    // past the deadline — then fired late and out of order.
    Simulator s;
    std::vector<Tick> at;
    s.schedule(5000, [&] { at.push_back(s.now()); });
    s.runUntil(4500);
    s.schedule(7000, [&] { at.push_back(s.now()); });
    s.runUntil(6000);
    EXPECT_EQ(at, (std::vector<Tick>{5000}));
    EXPECT_EQ(s.now(), 6000u);
    s.runUntil(8000);
    EXPECT_EQ(at, (std::vector<Tick>{5000, 7000}));
}

TEST(TimingWheel, RunUntilThenScheduleNearbyOverflowEvent)
{
    // Clamping now() into the same top-level block as a parked
    // overflow event must not move the clock backwards when the
    // overflow later drains.
    Simulator s;
    const Tick horizon = Tick(1) << 30;
    std::vector<Tick> at;
    s.schedule(horizon + 5000, [&] { at.push_back(s.now()); });
    s.runUntil(horizon + 1); // deadline inside the event's block
    EXPECT_TRUE(at.empty());
    EXPECT_EQ(s.now(), horizon + 1);
    s.schedule(horizon + 100, [&] { at.push_back(s.now()); });
    s.run();
    EXPECT_EQ(at, (std::vector<Tick>{horizon + 100, horizon + 5000}));
}

TEST(TimingWheel, StopInsideBucketPreservesRemainder)
{
    // stop() mid-bucket: remaining equal-timestamp events stay queued
    // and fire (in order) on the next run().
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        s.schedule(20, [&, i] {
            order.push_back(i);
            if (i == 1)
                s.stop();
        });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(s.pendingEvents(), 2u);
    s.reset_stop();
    s.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(TimingWheel, SparseTimerExpressLaneMatchesDenseOrder)
{
    // One lone periodic timer (express lane) interleaved with a
    // burst appearing later: ordering must be seamless.
    Simulator s;
    std::vector<std::pair<Tick, int>> order;
    struct Timer
    {
        static void
        arm(Simulator &s, std::vector<std::pair<Tick, int>> &order, int n)
        {
            if (n == 0)
                return;
            s.scheduleIn(1_us, [&s, &order, n] {
                order.emplace_back(s.now(), 0);
                arm(s, order, n - 1);
            });
        }
    };
    Timer::arm(s, order, 10);
    s.schedule(3500, [&] { order.emplace_back(s.now(), 1); });
    s.schedule(3500, [&] { order.emplace_back(s.now(), 2); });
    s.run();
    ASSERT_EQ(order.size(), 12u);
    std::vector<std::pair<Tick, int>> sorted = order;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    EXPECT_EQ(order, sorted);
    EXPECT_EQ(order[3], (std::pair<Tick, int>{3500, 1}));
    EXPECT_EQ(order[4], (std::pair<Tick, int>{3500, 2}));
}

TEST(TimingWheel, PendingEventCountTracksCalendar)
{
    Simulator s;
    s.schedule(10, [] {});
    s.schedule(10, [] {});
    s.schedule(Tick(1) << 33, [] {}); // overflow
    s.scheduleIn(0, [] {});           // ready ring at t=0
    EXPECT_EQ(s.pendingEvents(), 4u);
    s.runUntil(10);
    EXPECT_EQ(s.pendingEvents(), 1u);
    s.run();
    EXPECT_EQ(s.pendingEvents(), 0u);
    EXPECT_EQ(s.eventsExecuted(), 4u);
}

constexpr Tick kFar = Simulator::kFarDelay;

/** Delays around the near/far threshold, zero-delay included. */
constexpr std::array<Tick, 10> kDelays = {
    0, 1, 1000, kFar / 2, kFar - 1000, kFar - 1, kFar, kFar + 1,
    kFar + 1000, 2 * kFar};

std::uint64_t
engineCount(const Simulator &s, const char *name)
{
    return s.metrics().aggregateCounter("sim.engine", name);
}

TEST(NearFar, EqualWhenAcrossTheHeapsFiresInSeqOrder)
{
    // Both due at 2*kFar: the first is scheduled at t=0, a full 2*kFar
    // ahead (far heap); the second from a closure at 1.5*kFar, half a
    // threshold ahead (near heap). The far one holds the lower seq
    // and fires first, and the threshold itself counts as far.
    Simulator s;
    std::vector<int> order;
    s.schedule(2 * kFar, [&] { order.push_back(1); });
    s.schedule(kFar + kFar / 2, [&] {
        s.schedule(2 * kFar, [&] { order.push_back(2); });
        s.scheduleIn(kFar - 1, [&] { order.push_back(3); });
        s.scheduleIn(kFar, [&] { order.push_back(4); });
    });
    EXPECT_EQ(engineCount(s, "far_pushes"), 2u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(engineCount(s, "near_pushes"), 2u);
    EXPECT_EQ(engineCount(s, "far_pushes"), 3u);
    EXPECT_EQ(s.now(), kFar + kFar / 2 + kFar);
}

TEST(NearFar, RandomizedTracesStraddlingTheThresholdMatchSortedReference)
{
    // Delays drawn from a small set around the threshold put many
    // entries with equal timestamps into both heaps at once; runUntil
    // parks between bursts. The reference is the contract: ascending
    // (when, scheduling order).
    for (std::uint64_t seed : {3u, 17u, 2024u}) {
        Simulator s;
        sim::Rng rng(seed);
        std::vector<Obs> fired;
        std::vector<Obs> expected;
        std::uint64_t nextId = 0;
        struct Ctx
        {
            Simulator &s;
            sim::Rng &rng;
            std::vector<Obs> &fired;
            std::vector<Obs> &expected;
            std::uint64_t &nextId;
        } ctx{s, rng, fired, expected, nextId};
        struct Spawner
        {
            static void
            add(Ctx &c, Tick delay, int depth)
            {
                const std::uint64_t id = c.nextId++;
                c.expected.push_back({c.s.now() + delay, id});
                c.s.scheduleIn(delay, [&c, id, depth] {
                    c.fired.push_back({c.s.now(), id});
                    for (int k = 0; depth > 0 && k < 2; ++k)
                        add(c, kDelays[c.rng.below(kDelays.size())],
                            depth - 1);
                });
            }
        };
        for (int burst = 0; burst < 4; ++burst) {
            for (int i = 0; i < 300; ++i)
                Spawner::add(ctx, kDelays[rng.below(kDelays.size())],
                             i % 5 == 0 ? 3 : 0);
            s.runUntil(s.now() + kFar + kFar / 3);
        }
        s.run();

        ASSERT_EQ(fired.size(), expected.size());
        std::stable_sort(expected.begin(), expected.end());
        EXPECT_EQ(fired, expected) << "seed " << seed;
        EXPECT_GT(engineCount(s, "near_pushes"), 0u);
        EXPECT_GT(engineCount(s, "far_pushes"), 0u);
        EXPECT_GT(engineCount(s, "ready_events"), 0u);
        EXPECT_EQ(engineCount(s, "near_pushes") +
                      engineCount(s, "far_pushes") +
                      engineCount(s, "ready_events"),
                  s.eventsExecuted());
    }
}

TEST(ClosureStorage, ClosureSchedulingThousandsFromItsOwnBodyKeepsItsCaptures)
{
    // The parent schedules 1,000 children, zero-delay and future, from
    // inside its own invocation, while the parent's own block is
    // live. Each child fills a whole inline EventFn, so a child built
    // over the parent would clobber the parent's captures. They must still read back intact, and the
    // children fire in (when, seq) order.
    struct Ctx
    {
        Simulator s;
        sim::Rng rng{11};
        std::vector<Obs> fired;
        std::vector<Obs> expected;
        std::uint64_t nextId = 0;
        bool capturesIntact = false;

        void
        child(Tick delta)
        {
            const std::uint64_t id = nextId++;
            expected.push_back({s.now() + delta, id});
            std::array<std::uint64_t, 7> fill;
            fill.fill(~id);
            s.scheduleIn(delta, [this, id, fill] {
                fired.push_back({s.now(), fill[6] == ~id ? id : ~id});
            });
        }
    } ctx;
    using Pattern = std::array<std::uint64_t, 8>;
    const Pattern pattern = {
        0x0123456789abcdefull, 0xfedcba9876543210ull, 0x5555aaaa5555aaaaull,
        0xdeadbeefcafef00dull, 0x0f0f0f0f0f0f0f0full, 0x1122334455667788ull,
        0x8877665544332211ull, 0xa5a5a5a5a5a5a5a5ull};
    static_assert(sizeof(Pattern) + sizeof(Ctx *) <=
                  sim::EventFn::kInlineSize);
    ctx.s.schedule(100, [pattern, c = &ctx] {
        for (int i = 0; i < 1000; ++i)
            c->child(i % 2 == 0 ? 0 : 1 + c->rng.below(5000));
        c->capturesIntact = pattern == Pattern{
            0x0123456789abcdefull, 0xfedcba9876543210ull,
            0x5555aaaa5555aaaaull, 0xdeadbeefcafef00dull,
            0x0f0f0f0f0f0f0f0full, 0x1122334455667788ull,
            0x8877665544332211ull, 0xa5a5a5a5a5a5a5a5ull};
    });
    // A sibling due at the parent's tick, scheduled after it: it must
    // fire before every zero-delay child the parent makes.
    const std::uint64_t siblingId = 1u << 20;
    ctx.s.schedule(100, [c = &ctx, siblingId] {
        c->fired.push_back({c->s.now(), siblingId});
    });
    ctx.s.run();

    EXPECT_TRUE(ctx.capturesIntact);
    ctx.expected.insert(ctx.expected.begin(), Obs{100, siblingId});
    std::stable_sort(ctx.expected.begin(), ctx.expected.end(),
                     [](const Obs &a, const Obs &b) {
                         return a.when < b.when;
                     });
    EXPECT_EQ(ctx.fired, ctx.expected);
    EXPECT_EQ(ctx.s.pendingEvents(), 0u);
}

/** Counts destructions of the one live copy (moved-from copies do not
 *  count), so the count is exactly "closures destroyed". */
struct DestroyProbe
{
    int *destroyed;
    bool live = true;

    explicit DestroyProbe(int *d) : destroyed(d) {}
    DestroyProbe(const DestroyProbe &o) : destroyed(o.destroyed) {}
    DestroyProbe(DestroyProbe &&o) noexcept
        : destroyed(o.destroyed), live(std::exchange(o.live, false))
    {}
    ~DestroyProbe()
    {
        if (live)
            ++*destroyed;
    }
};

TEST(ClosureStorage, TeardownDestroysEachPendingClosureOnce)
{
    int destroyed = 0;
    int ran = 0;
    {
        Simulator s;
        // Fired closures: destroyed once, right after they run.
        for (int i = 0; i < 5; ++i)
            s.schedule(10, [&ran, p = DestroyProbe(&destroyed)] { ++ran; });
        // Pending in the heap at teardown, inline and pool-spilled.
        for (int i = 0; i < 7; ++i)
            s.schedule(1000, [&ran, p = DestroyProbe(&destroyed)] { ++ran; });
        std::array<std::uint64_t, 16> big{}; // spills to the pool
        for (int i = 0; i < 2; ++i)
            s.schedule(2000, [&ran, p = DestroyProbe(&destroyed), big] {
                ran += static_cast<int>(big[0]);
            });
        // Pending in the far heap at teardown, inline and spilled.
        for (int i = 0; i < 3; ++i)
            s.schedule(5_ms, [&ran, p = DestroyProbe(&destroyed)] { ++ran; });
        s.schedule(9_ms, [&ran, p = DestroyProbe(&destroyed), big] {
            ran += static_cast<int>(big[0]);
        });
        // Pending in the ready ring at teardown: a closure at t=20
        // leaves three zero-delay wakeups and stops the run.
        s.schedule(20, [&s, &ran, p = DestroyProbe(&destroyed)] {
            ++ran;
            for (int i = 0; i < 3; ++i)
                s.scheduleIn(0, [&ran, q = DestroyProbe(p.destroyed)] {
                    ++ran;
                });
            s.stop();
        });
        s.run();
        EXPECT_EQ(ran, 6);
        EXPECT_EQ(destroyed, 6);
        EXPECT_EQ(s.pendingEvents(), 16u);
        EXPECT_EQ(s.metrics().aggregateCounter("sim.engine", "far_pushes"),
                  4u);
    }
    EXPECT_EQ(ran, 6);
    EXPECT_EQ(destroyed, 22);
}

} // namespace
