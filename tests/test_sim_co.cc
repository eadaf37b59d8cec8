/**
 * @file
 * Tests for Co<T> lazy coroutines and the Core processor resource.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/channel.hh"
#include "sim/co.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx::sim;
using namespace lynx::sim::literals;

namespace {

Co<int>
addAfter(Tick d, int a, int b)
{
    co_await sleep(d);
    co_return a + b;
}

Co<int>
nested(Tick d)
{
    int x = co_await addAfter(d, 1, 2);
    int y = co_await addAfter(d, x, 10);
    co_return y;
}

} // namespace

TEST(Co, ReturnsValueAfterDelay)
{
    Simulator sim;
    int got = 0;
    auto body = [&]() -> Task { got = co_await addAfter(7_us, 2, 3); };
    spawn(sim, body());
    sim.run();
    EXPECT_EQ(got, 5);
    EXPECT_EQ(sim.now(), 7_us);
}

TEST(Co, NestedCompositionAccumulatesTimeAndValues)
{
    Simulator sim;
    int got = 0;
    auto body = [&]() -> Task { got = co_await nested(5_us); };
    spawn(sim, body());
    sim.run();
    EXPECT_EQ(got, 13);
    EXPECT_EQ(sim.now(), 10_us);
}

TEST(Co, VoidCoRuns)
{
    Simulator sim;
    int side = 0;
    auto voidCo = [&](Tick d) -> Co<void> {
        co_await sleep(d);
        side = 42;
    };
    auto body = [&]() -> Task { co_await voidCo(3_us); };
    spawn(sim, body());
    sim.run();
    EXPECT_EQ(side, 42);
}

TEST(Co, MovableValues)
{
    Simulator sim;
    std::string got;
    auto makeString = []() -> Co<std::string> {
        co_await sleep(1_us);
        co_return std::string("hello");
    };
    auto body = [&]() -> Task { got = co_await makeString(); };
    spawn(sim, body());
    sim.run();
    EXPECT_EQ(got, "hello");
}

TEST(Co, TeardownDestroysSuspendedChildChain)
{
    bool inner = false, outer = false;
    struct Flag
    {
        bool *f;
        ~Flag() { *f = true; }
    };
    {
        Simulator sim;
        Channel<int> never(sim);
        auto child = [&]() -> Co<void> {
            Flag f{&inner};
            co_await never.pop();
        };
        auto body = [&]() -> Task {
            Flag f{&outer};
            co_await child();
        };
        spawn(sim, body());
        sim.run();
        EXPECT_FALSE(inner);
    }
    EXPECT_TRUE(inner);
    EXPECT_TRUE(outer);
}

TEST(Core, SerializesWork)
{
    Simulator sim;
    Core core(sim, "xeon.0");
    std::vector<Tick> completions;
    auto user = [&]() -> Task {
        co_await core.exec(10_us);
        completions.push_back(sim.now());
    };
    spawn(sim, user());
    spawn(sim, user());
    spawn(sim, user());
    sim.run();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0], 10_us);
    EXPECT_EQ(completions[1], 20_us);
    EXPECT_EQ(completions[2], 30_us);
    EXPECT_EQ(core.busyTime(), 30_us);
}

TEST(Core, SpeedFactorScalesCost)
{
    Simulator sim;
    Core arm(sim, "arm.0", 5.0);
    Tick done = 0;
    auto user = [&]() -> Task {
        co_await arm.exec(10_us);
        done = sim.now();
    };
    spawn(sim, user());
    sim.run();
    EXPECT_EQ(done, 50_us);
}

TEST(Core, ContentionSlowsExecution)
{
    Simulator sim;
    Core core(sim, "xeon.0");
    core.setContention(2.0);
    Tick done = 0;
    auto user = [&]() -> Task {
        co_await core.exec(10_us);
        done = sim.now();
    };
    spawn(sim, user());
    sim.run();
    EXPECT_EQ(done, 20_us);
    core.setContention(1.0);
    EXPECT_EQ(core.scaledCost(10_us), 10_us);
}

TEST(Core, UtilizationTracksBusyFraction)
{
    Simulator sim;
    Core core(sim, "xeon.0");
    auto user = [&]() -> Task { co_await core.exec(25_us); };
    spawn(sim, user());
    sim.runUntil(100_us);
    EXPECT_DOUBLE_EQ(core.utilization(100_us), 0.25);
}

TEST(Core, ExecThenRunsHookBeforeRelease)
{
    Simulator sim;
    Core core(sim, "xeon.0");
    std::vector<int> order;
    auto a = [&]() -> Task {
        co_await core.execThen(10_us, [&] { order.push_back(1); });
    };
    auto b = [&]() -> Task {
        co_await core.exec(1_us);
        order.push_back(2);
    };
    spawn(sim, a());
    spawn(sim, b());
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Core, ExecThenHookRunsBeforeTheNextWaiterIsGranted)
{
    // A zero-delay wakeup made inside the hook is queued before the
    // release's grant hop, so it sees the next waiter still ungranted.
    Simulator sim;
    Core core(sim, "xeon.0");
    Tick busyAtWakeup = 0;
    auto a = [&]() -> Task {
        co_await core.execThen(10_us, [&] {
            sim.scheduleIn(0, [&] { busyAtWakeup = core.busyTime(); });
        });
    };
    auto b = [&]() -> Task { co_await core.exec(1_us); };
    spawn(sim, a());
    spawn(sim, b());
    sim.run();
    EXPECT_EQ(busyAtWakeup, 10_us);
    EXPECT_EQ(core.busyTime(), 11_us);
}

TEST(Core, ContendedGrantsMatchGolden)
{
    // Three tasks exec on one core at the same tick; a zero-delay task
    // is made between two grants, and the contention changes between
    // a release and the grant it triggers (twice: in the releaser's
    // own continuation and in a timer due at the same tick). Captured
    // from the Semaphore-and-Co<void> Core; the fire order, every
    // timestamp and busyTime() must stay exact.
    Simulator sim;
    Core core(sim, "arm.0", 1.5);
    std::vector<std::pair<std::string, Tick>> log;
    auto note = [&](const char *what) { log.emplace_back(what, sim.now()); };
    auto d = [&]() -> Task {
        co_await core.exec(0);
        note("d");
    };
    auto a = [&]() -> Task {
        co_await core.exec(10_us);
        note("a1");
        core.setContention(2.0);
        sim.scheduleIn(0, [&] {
            note("zero");
            spawn(sim, d());
        });
        co_await core.exec(3_us);
        note("a2");
    };
    auto b = [&]() -> Task {
        co_await core.exec(4001);
        note("b");
    };
    auto c = [&]() -> Task {
        co_await core.execThen(5_us, [&] { note("c-then"); });
        note("c");
        core.setContention(1.0);
    };
    spawn(sim, a());
    spawn(sim, b());
    spawn(sim, c());
    sim.schedule(15_us, [&] {
        note("timer");
        core.setContention(1.25);
    });
    sim.run();

    const std::vector<std::pair<std::string, Tick>> golden = {
        {"a1", 15000},    {"timer", 15000}, {"zero", 15000},
        {"b", 22501},     {"c-then", 31876}, {"c", 31876},
        {"a2", 36376},    {"d", 36376},
    };
    EXPECT_EQ(log, golden);
    EXPECT_EQ(core.busyTime(), Tick(36376));
    EXPECT_EQ(sim.eventsExecuted(), 11u);
}

TEST(Core, TeardownDestroysQueuedWaitersWithoutResumingThem)
{
    // Three tasks queue behind a fourth that holds the core when the
    // simulation is torn down, with the core destroyed before and
    // after the simulator. Each frame is destroyed once (its local's
    // destructor runs once), none is resumed past its exec, and the
    // sanitizer lane sees no leak.
    struct Probe
    {
        int *destroyed;
        ~Probe() { ++*destroyed; }
    };
    for (bool coreFirst : {true, false}) {
        int destroyed = 0;
        int resumed = 0;
        auto sim = std::make_unique<Simulator>();
        auto core = std::make_unique<Core>(*sim, "xeon.0");
        auto user = [&]() -> Task {
            Probe p{&destroyed};
            co_await core->exec(10_us);
            ++resumed;
        };
        for (int i = 0; i < 4; ++i)
            spawn(*sim, user());
        sim->runUntil(5_us);
        EXPECT_EQ(resumed, 0);
        if (coreFirst)
            core.reset();
        sim.reset();
        core.reset();
        EXPECT_EQ(resumed, 0);
        EXPECT_EQ(destroyed, 4);
    }
}

TEST(CorePool, CreatesNamedCores)
{
    Simulator sim;
    CorePool pool(sim, "bf.arm", 7, 5.0);
    EXPECT_EQ(pool.size(), 7u);
    EXPECT_EQ(pool[0].name(), "bf.arm.0");
    EXPECT_EQ(pool[6].name(), "bf.arm.6");
    EXPECT_DOUBLE_EQ(pool[3].speedFactor(), 5.0);
}

TEST(CorePool, CoresRunIndependently)
{
    Simulator sim;
    CorePool pool(sim, "c", 2);
    std::vector<Tick> completions;
    auto user = [&](Core &core) -> Task {
        co_await core.exec(10_us);
        completions.push_back(sim.now());
    };
    spawn(sim, user(pool[0]));
    spawn(sim, user(pool[1]));
    sim.run();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0], 10_us);
    EXPECT_EQ(completions[1], 10_us); // parallel, not serialized
}
