/**
 * @file
 * Tests for the endpoint arrival-waiter machinery (the event-driven
 * receive-with-timeout used by load generators and the backend
 * listener): no double resume, exact timeout behaviour, fairness, and
 * the one coalesced deadline timer per endpoint.
 */

#include <gtest/gtest.h>

#include "net/network.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

struct Rig
{
    sim::Simulator s;
    net::Network nw{s};
    net::Nic &a = nw.addNic("a");
    net::Nic &b = nw.addNic("b");
    net::Endpoint &ep = b.bind(net::Protocol::Udp, 7);

    sim::Task
    sendAt(sim::Tick when, int marker)
    {
        co_await sim::sleep(when);
        net::Message m;
        m.src = {a.node(), 1};
        m.dst = {b.node(), 7};
        m.proto = net::Protocol::Udp;
        m.payload = {static_cast<std::uint8_t>(marker)};
        co_await a.send(std::move(m));
    }
};

} // namespace

TEST(RecvTimeout, ReturnsMessageBeforeDeadline)
{
    Rig r;
    sim::spawn(r.s, r.sendAt(50_us, 9));
    std::optional<net::Message> got;
    sim::Tick when = 0;
    auto rx = [&]() -> sim::Task {
        got = co_await workload::recvTimeout(r.s, r.ep, 1_ms);
        when = r.s.now();
    };
    sim::spawn(r.s, rx());
    r.s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload[0], 9);
    // Event-driven: resumes right at arrival, not at a poll boundary.
    EXPECT_LT(when, 60_us);
}

TEST(RecvTimeout, TimesOutExactly)
{
    Rig r;
    std::optional<net::Message> got;
    sim::Tick when = 0;
    auto rx = [&]() -> sim::Task {
        got = co_await workload::recvTimeout(r.s, r.ep, 250_us);
        when = r.s.now();
    };
    sim::spawn(r.s, rx());
    r.s.run();
    EXPECT_FALSE(got.has_value());
    EXPECT_EQ(when, 250_us);
}

TEST(RecvTimeout, LateMessageAfterTimeoutStaysQueued)
{
    Rig r;
    sim::spawn(r.s, r.sendAt(400_us, 5));
    std::optional<net::Message> first, second;
    auto rx = [&]() -> sim::Task {
        first = co_await workload::recvTimeout(r.s, r.ep, 100_us);
        second = co_await workload::recvTimeout(r.s, r.ep, 1_ms);
    };
    sim::spawn(r.s, rx());
    r.s.run();
    EXPECT_FALSE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->payload[0], 5);
}

TEST(RecvTimeout, StaleTimerAfterArrivalDoesNotDoubleResume)
{
    // Arrival at 10us, timeout armed for 100us: the late timer event
    // must find the waiter already fired and do nothing.
    Rig r;
    sim::spawn(r.s, r.sendAt(10_us, 1));
    int resumes = 0;
    auto rx = [&]() -> sim::Task {
        auto m = co_await workload::recvTimeout(r.s, r.ep, 100_us);
        ++resumes;
        EXPECT_TRUE(m.has_value());
        // Park past the stale timer's firing point.
        co_await sim::sleep(500_us);
    };
    sim::spawn(r.s, rx());
    r.s.run();
    EXPECT_EQ(resumes, 1);
}

TEST(RecvTimeout, CompetingReceiversEachGetOneMessage)
{
    Rig r;
    sim::spawn(r.s, r.sendAt(10_us, 1));
    sim::spawn(r.s, r.sendAt(20_us, 2));
    int got = 0, timeouts = 0;
    auto rx = [&]() -> sim::Task {
        auto m = co_await workload::recvTimeout(r.s, r.ep, 1_ms);
        (m ? got : timeouts)++;
    };
    sim::spawn(r.s, rx());
    sim::spawn(r.s, rx());
    r.s.run();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(timeouts, 0);
}

TEST(RecvTimeout, ImmediateWhenMessageAlreadyQueued)
{
    Rig r;
    sim::spawn(r.s, r.sendAt(0, 7));
    r.s.run(); // message is now sitting in the endpoint queue
    std::optional<net::Message> got;
    sim::Tick when = sim::maxTick;
    auto rx = [&]() -> sim::Task {
        sim::Tick t0 = r.s.now();
        got = co_await workload::recvTimeout(r.s, r.ep, 1_ms);
        when = r.s.now() - t0;
    };
    sim::spawn(r.s, rx());
    r.s.run();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(when, 0u);
}

TEST(RecvTimeout, DeadlineAfterRearmFiresAtExactTick)
{
    // The first wait arms the endpoint's timer for 100us and is
    // answered at 10us; the second wait's later deadline (160us) is
    // served by re-arming when that timer fires.
    Rig r;
    sim::spawn(r.s, r.sendAt(10_us, 1));
    std::optional<net::Message> first, second;
    sim::Tick when = 0;
    auto rx = [&]() -> sim::Task {
        first = co_await workload::recvTimeout(r.s, r.ep, 100_us);
        second = co_await workload::recvTimeout(r.s, r.ep,
                                                160_us - r.s.now());
        when = r.s.now();
    };
    sim::spawn(r.s, rx());
    r.s.run();
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(second.has_value());
    EXPECT_EQ(when, 160_us);
}

TEST(RecvTimeout, EarlierDeadlineOnSameEndpointFiresFirst)
{
    // A 1ms waiter arms the timer; a 50us waiter parked after it needs
    // an earlier one. Each times out at its own deadline.
    Rig r;
    sim::Tick longAt = 0, shortAt = 0;
    auto longRx = [&]() -> sim::Task {
        auto m = co_await workload::recvTimeout(r.s, r.ep, 1_ms);
        EXPECT_FALSE(m.has_value());
        longAt = r.s.now();
    };
    auto shortRx = [&]() -> sim::Task {
        co_await sim::sleep(5_us);
        auto m = co_await workload::recvTimeout(r.s, r.ep, 50_us);
        EXPECT_FALSE(m.has_value());
        shortAt = r.s.now();
    };
    sim::spawn(r.s, longRx());
    sim::spawn(r.s, shortRx());
    r.s.run();
    EXPECT_EQ(shortAt, 55_us);
    EXPECT_EQ(longAt, 1_ms);
}

TEST(RecvTimeout, UnbindWithTimerArmedIsSafe)
{
    // The answered wait leaves the endpoint's timer armed for 1ms;
    // unbinding frees the endpoint before it fires (ASan checks).
    Rig r;
    net::Endpoint &ep = r.b.bind(net::Protocol::Udp, 8);
    auto send = [&]() -> sim::Task {
        co_await sim::sleep(10_us);
        net::Message m;
        m.src = {r.a.node(), 1};
        m.dst = {r.b.node(), 8};
        m.proto = net::Protocol::Udp;
        m.payload = {3};
        co_await r.a.send(std::move(m));
    };
    bool got = false;
    auto rx = [&]() -> sim::Task {
        got = (co_await workload::recvTimeout(r.s, ep, 1_ms)).has_value();
        r.b.unbind(net::Protocol::Udp, 8);
    };
    sim::spawn(r.s, send());
    sim::spawn(r.s, rx());
    r.s.run();
    EXPECT_TRUE(got);
    EXPECT_EQ(r.s.now(), 1_ms); // the orphaned timer fired as a no-op
}

TEST(RecvTimeout, AnsweredWaitsKeepPendingEventsBounded)
{
    // 10k round trips inside one 1s timeout: one per-wait timer each
    // would leave 10k events pending; the coalesced timer leaves one.
    Rig r;
    constexpr int kRounds = 10000;
    auto echo = [&]() -> sim::Task {
        net::Endpoint &srv = r.a.bind(net::Protocol::Udp, 1);
        for (;;) {
            net::Message m = co_await srv.recv();
            std::swap(m.src, m.dst);
            co_await r.a.send(std::move(m));
        }
    };
    int answered = 0;
    std::uint64_t maxPending = 0;
    sim::Tick doneAt = 0;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < kRounds; ++i) {
            net::Message m;
            m.src = {r.b.node(), 7};
            m.dst = {r.a.node(), 1};
            m.proto = net::Protocol::Udp;
            m.payload = {static_cast<std::uint8_t>(i)};
            co_await r.b.send(std::move(m));
            if (co_await workload::recvTimeout(r.s, r.ep, 1'000_ms))
                ++answered;
            maxPending = std::max(maxPending, r.s.pendingEvents());
        }
        doneAt = r.s.now();
    };
    sim::spawn(r.s, echo());
    sim::spawn(r.s, client());
    r.s.run();
    EXPECT_EQ(answered, kRounds);
    EXPECT_LT(doneAt, 1'000_ms); // all inside one timeout span
    EXPECT_LE(maxPending, 4u);
}
