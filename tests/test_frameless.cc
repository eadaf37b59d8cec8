/**
 * @file
 * The hot helpers that take no simulated time of their own start no
 * coroutine frame: Nic::send, Endpoint::recv and recvUntil,
 * QueuePair::fetch and read, the posted ring write and the TX poll
 * are awaiters (docs/INTERNALS.md §1). These tests pin what that must
 * not change: the timestamps two senders sharing a NIC see, paced and
 * unpaced; a failed fetch's completion time and counters; an empty TX
 * poll that takes no time and makes no event; and a teardown with
 * callers parked inside the awaiters, which must free each parked
 * message and buffer exactly once (the sanitizer lane checks that).
 * The frame count of a Bluefield echo is pinned too, so a helper that
 * brings a frame back fails here.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/fault.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

/** @return engine counter @p name of @p s. */
std::uint64_t
engineCount(const sim::Simulator &s, const char *name)
{
    return s.metrics().aggregateCounter("sim.engine", name);
}

/** When each of two senders' messages left the shared NIC (the
 *  sender resumes as its message goes on the wire), and when each
 *  reached the receiving endpoint. */
struct SendTimes
{
    std::vector<sim::Tick> tx[2];
    std::vector<sim::Tick> rx;
};

/** Two senders on one NIC, four 1,000-byte messages each, to one
 *  remote endpoint. With @p paced, DCQCN is on and the flow's rate
 *  is cut first, so each send waits for its paced slot before the
 *  TX queue. */
SendTimes
twoSenders(bool paced)
{
    sim::Simulator s;
    net::NetworkConfig ncfg;
    ncfg.congestion.enabled = paced;
    ncfg.congestion.dcqcnEnabled = paced;
    net::Network nw(s, ncfg);
    net::Nic &a = nw.addNic("a");
    net::Nic &b = nw.addNic("b");
    net::Endpoint &ep = b.bind(net::Protocol::Udp, 9000);
    if (paced)
        a.handleCnp(b.node());

    SendTimes t;
    auto sender = [&](int i) -> sim::Task {
        for (int k = 0; k < 4; ++k) {
            net::Message m;
            m.src = {a.node(), static_cast<std::uint16_t>(100 + i)};
            m.dst = {b.node(), 9000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>(1000, 0x5a);
            m.seq = static_cast<std::uint64_t>(k);
            co_await a.send(std::move(m));
            t.tx[i].push_back(s.now());
        }
    };
    auto receiver = [&]() -> sim::Task {
        for (int k = 0; k < 8; ++k) {
            (void)co_await ep.recv();
            t.rx.push_back(s.now());
        }
    };
    sim::spawn(s, receiver());
    sim::spawn(s, sender(0));
    sim::spawn(s, sender(1));
    s.run();
    return t;
}

/** An SNIC mqueue over a local QP, as in the mqueue tests. */
struct Rig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    core::MqueueLayout layout{0, 8, 256};
};

/** The sim.engine frames_started of @p requests closed-loop echoes
 *  through a Lynx runtime on Bluefield: one mqueue, unbatched, an
 *  accelerator worker that receives and sends one message at a
 *  time, and a client that awaits each echo with a deadline. */
std::uint64_t
bluefieldEchoFrames(int requests)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    net::Nic &clientNic = nw.addNic("client");
    pcie::DeviceMemory gpuMem("gpu0.mem", 4 << 20);
    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("gpu0", gpuMem, rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    auto worker = [&](core::AccelQueue &q) -> sim::Task {
        std::vector<core::GioMessage> msgs;
        std::vector<core::GioTxItem> items;
        for (;;) {
            msgs.clear();
            co_await q.recvBatch(1, msgs);
            items.clear();
            for (const core::GioMessage &m : msgs)
                items.push_back({m.tag, m.payload, 0});
            co_await q.sendBatch(items);
        }
    };
    sim::spawn(s, worker(*queues[0]));
    rt.start();

    net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, 40000);
    int answered = 0;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < requests; ++i) {
            net::Message m;
            m.src = {clientNic.node(), 40000};
            m.dst = {bf.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>{1, 2, 3, 4};
            m.seq = static_cast<std::uint64_t>(i);
            co_await clientNic.send(std::move(m));
            if (co_await workload::recvTimeout(s, ep, 200_ms))
                ++answered;
        }
    };
    sim::spawn(s, client());
    s.run();
    EXPECT_EQ(answered, requests);
    return engineCount(s, "frames_started");
}

} // namespace

TEST(FramelessAwaiters, SharedNicSendTimesMatchTheCoroutineSend)
{
    // Captured from the coroutine Nic::send this awaiter replaced:
    // 1,000 B at 40 Gbit/s serialize in 200 ns, the senders
    // alternate in the TX queue, and each delivery follows its wire
    // time by the hardware, switch and wire latencies.
    const SendTimes t = twoSenders(false);
    EXPECT_EQ(t.tx[0], (std::vector<sim::Tick>{200, 600, 1000, 1400}));
    EXPECT_EQ(t.tx[1], (std::vector<sim::Tick>{400, 800, 1200, 1600}));
    EXPECT_EQ(t.rx, (std::vector<sim::Tick>{1800, 2000, 2200, 2400, 2600,
                                            2800, 3000, 3200}));
}

TEST(FramelessAwaiters, PacedSendTimesMatchTheCoroutineSend)
{
    // Captured from the coroutine Nic::send, DCQCN-paced after one
    // rate cut: each send waits for its flow's paced slot, then for
    // the TX queue as read after that wait.
    const SendTimes t = twoSenders(true);
    EXPECT_EQ(t.tx[0], (std::vector<sim::Tick>{200, 1480, 2760, 4040}));
    EXPECT_EQ(t.tx[1], (std::vector<sim::Tick>{840, 2120, 3400, 4680}));
    EXPECT_EQ(t.rx, (std::vector<sim::Tick>{2000, 2640, 3280, 3920, 4560,
                                            5200, 5840, 6480}));
}

TEST(FramelessAwaiters, FailedFetchCompletesAndCountsAsBefore)
{
    sim::Simulator s;
    pcie::DeviceMemory mem("m", 4096);
    rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
    sim::FaultConfig fc;
    fc.dropRate = 1.0;
    sim::FaultPlan plan(fc);
    rdma::QpFaultBinding fb;
    fb.plan = &plan;
    fb.initiator = 0;
    fb.target = 1;
    qp.bindFaults(fb);

    rdma::WcStatus first = rdma::WcStatus::Ok;
    rdma::WcStatus second = rdma::WcStatus::Error;
    sim::Tick failedAt = 0, okAt = 0;
    auto body = [&]() -> sim::Task {
        first = co_await qp.fetch(64);
        failedAt = s.now();
        plan.heal();
        second = co_await qp.fetch(64);
        okAt = s.now();
    };
    sim::spawn(s, body());
    s.run();

    // Captured from the coroutine fetch: the failed one pays its four
    // transmission attempts' retransmit timeouts on top of the
    // pipelined latency; fetch_errors counts it once, at completion.
    EXPECT_EQ(first, rdma::WcStatus::Error);
    EXPECT_EQ(second, rdma::WcStatus::Ok);
    EXPECT_EQ(failedAt, 65'510u);
    EXPECT_EQ(okAt, 65'510u + 1'510u);
    EXPECT_EQ(qp.stats().counterValue("fetch_errors"), 1u);
    EXPECT_EQ(qp.stats().counterValue("wc_errors"), 1u);
    EXPECT_EQ(qp.stats().counterValue("hw_retransmits"), 4u);
}

TEST(FramelessAwaiters, EmptyTxPollStartsNoFrameAndMakesNoEvent)
{
    Rig r;
    core::SnicMqueue mq(r.s, "mq0", r.qp, r.layout,
                        core::MqueueKind::Server);
    std::vector<core::TxMessage> out;
    const char *kCounters[] = {"frames_started", "near_pushes",
                               "far_pushes", "ready_events",
                               "closure_events"};
    std::vector<std::uint64_t> before, after;
    sim::Tick at = 1, resumedAt = 0;
    std::uint64_t events = 0;
    auto body = [&]() -> sim::Task {
        co_await sim::sleep(5_us);
        at = r.s.now();
        events = r.s.eventsExecuted() + r.s.pendingEvents();
        for (const char *c : kCounters)
            before.push_back(engineCount(r.s, c));
        co_await mq.pollTxBatch(r.core, 4, out);
        for (const char *c : kCounters)
            after.push_back(engineCount(r.s, c));
        resumedAt = r.s.now();
        EXPECT_EQ(r.s.eventsExecuted() + r.s.pendingEvents(), events);
    };
    sim::spawn(r.s, body());
    r.s.run();
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(resumedAt, at);
    EXPECT_EQ(after, before);
    EXPECT_EQ(mq.stats().counterValue("tx_polls"), 1u);
    EXPECT_EQ(mq.stats().counterValue("tx_fetch_ops"), 0u);
}

TEST(FramelessAwaiters, TeardownWithCallersParkedFreesEverythingOnce)
{
    // Each caller parks inside an awaiter holding a message or a
    // buffer; the simulator is then destroyed with the events that
    // would resume them still pending.
    for (bool paced : {false, true}) {
        sim::Simulator s;
        net::NetworkConfig ncfg;
        ncfg.congestion.enabled = paced;
        ncfg.congestion.dcqcnEnabled = paced;
        net::Network nw(s, ncfg);
        net::Nic &a = nw.addNic("a");
        net::Nic &b = nw.addNic("b");
        if (paced)
            a.handleCnp(b.node());
        int sent = 0;
        auto sender = [&]() -> sim::Task {
            for (;;) {
                net::Message m;
                m.src = {a.node(), 100};
                m.dst = {b.node(), 9000};
                m.payload = std::vector<std::uint8_t>(4096, 0x11);
                co_await a.send(std::move(m));
                ++sent;
            }
        };
        sim::spawn(s, sender());
        sim::spawn(s, sender());
        s.runUntil(1_us);
        EXPECT_GT(sent, 0);
        EXPECT_GT(s.pendingEvents(), 0u);
    }
    {
        Rig r;
        auto fetcher = [&]() -> sim::Task { co_await r.qp.fetch(4096); };
        sim::spawn(r.s, fetcher());
        EXPECT_EQ(r.s.pendingEvents(), 1u);
    }
    {
        // Two pushers on one core: the first is charged the post cost
        // (its wakeup pending), the second waits for the core. Both
        // hold their encoded slot image in the ring write's awaiter.
        Rig r;
        core::SnicMqueue mq(r.s, "mq0", r.qp, r.layout,
                            core::MqueueKind::Server);
        std::vector<std::uint8_t> payload(200, 0x22);
        auto pusher = [&](std::uint32_t tag) -> sim::Task {
            (void)co_await mq.rxPush(r.core, payload, tag);
        };
        sim::spawn(r.s, pusher(1));
        sim::spawn(r.s, pusher(2));
        EXPECT_EQ(r.s.pendingEvents(), 1u);
        EXPECT_EQ(r.s.liveCoroutines(), 2u);
    }
}

TEST(FramelessAwaiters, BluefieldEchoFramesArePinned)
{
    // About six frames per echo (80 for 10 echoes, 142 for 20): the
    // dispatcher's dispatch(), the RX push loop, the accelerator's
    // receive and sendBatch, the forwarder's TX fetch and its credit
    // commit, plus the long-lived tasks. Everything else on the path
    // (sends, receives, the receive deadline, claim, ring writes,
    // the pipelined fetch, the forward step) is an awaiter or plain
    // code. With a coroutine per helper this run started 393 frames.
    EXPECT_EQ(bluefieldEchoFrames(20), 142u);
}
