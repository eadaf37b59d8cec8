/**
 * @file
 * Tests for the batched dispatch & forwarding extension: multi-slot
 * coalesced RX writes (SnicMqueue::rxPushBatch), pipelined TX drains
 * (pollTxBatch), accelerator-side burst consumption (gio rxBurst),
 * the fallback rules (ring wrap, §5.1 write barrier, split writes),
 * and — most importantly — that every batching knob at its default
 * reproduces the unbatched seed behaviour exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "host/node.hh"
#include "lynx/gio.hh"
#include "lynx/mqueue.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::GioConfig;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SnicMqueue;
using lynx::core::SnicMqueueConfig;

namespace {

struct Rig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout{0, 8, 256};
};

std::vector<std::uint8_t>
randomPayload(sim::Rng &rng, std::size_t maxLen)
{
    std::vector<std::uint8_t> p(1 + rng.below(maxLen));
    for (auto &b : p)
        b = static_cast<std::uint8_t>(rng.below(256));
    return p;
}

/** Push all of @p msgs through rxPushBatch in random-size groups,
 *  retrying whenever the ring fills. */
sim::Task
pushAll(Rig &r, SnicMqueue &mq, const std::vector<std::vector<std::uint8_t>> &msgs,
        std::uint64_t seed, int maxGroup)
{
    sim::Rng rng(seed);
    std::size_t next = 0;
    while (next < msgs.size()) {
        std::size_t n = std::min<std::size_t>(
            1 + rng.below(static_cast<std::uint64_t>(maxGroup)),
            msgs.size() - next);
        std::vector<SnicMqueue::RxItem> items;
        for (std::size_t j = 0; j < n; ++j) {
            items.push_back({msgs[next + j],
                             static_cast<std::uint32_t>(next + j), 0});
        }
        std::size_t accepted = co_await mq.rxPushBatch(r.core, items);
        next += accepted;
        if (accepted < n)
            co_await sim::sleep(2_us);
    }
}

/** Consume @p count messages via gio, recording payloads and tags. */
sim::Task
recvAll(AccelQueue &gio, std::size_t count,
        std::vector<std::vector<std::uint8_t>> &payloads,
        std::vector<std::uint32_t> &tags)
{
    for (std::size_t i = 0; i < count; ++i) {
        core::GioMessage m = co_await gio.recv();
        payloads.push_back(std::move(m.payload));
        tags.push_back(m.tag);
    }
}

} // namespace

/**
 * Property/torture test: random payloads pushed in random batch
 * sizes over a tiny 8-slot ring (so segments constantly hit the
 * wrap-split path and flow control), consumed in burst mode. Every
 * byte must come out intact and every tag in order, while the write
 * count proves multi-slot coalescing actually happened.
 */
TEST(Batching, RxPushBatchFidelityAcrossWrapAndFlowControl)
{
    for (std::uint64_t seed : {11ull, 23ull, 47ull}) {
        Rig r;
        SnicMqueueConfig cfg;
        cfg.maxBatch = 5; // does not divide 8: exercises wrap splits
        SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server,
                      cfg);
        GioConfig gcfg;
        gcfg.rxBurst = true;
        AccelQueue gio(r.s, "gio", r.mem, r.layout, gcfg);

        sim::Rng rng(seed * 77);
        std::vector<std::vector<std::uint8_t>> msgs;
        for (int i = 0; i < 101; ++i)
            msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

        std::vector<std::vector<std::uint8_t>> got;
        std::vector<std::uint32_t> gotTags;
        sim::spawn(r.s, pushAll(r, mq, msgs, seed, cfg.maxBatch));
        sim::spawn(r.s, recvAll(gio, msgs.size(), got, gotTags));
        r.s.run();

        ASSERT_EQ(got.size(), msgs.size()) << "seed " << seed;
        for (std::size_t i = 0; i < msgs.size(); ++i) {
            EXPECT_EQ(got[i], msgs[i]) << "message " << i;
            EXPECT_EQ(gotTags[i], i) << "message " << i;
        }
        // Multi-slot segments actually formed...
        EXPECT_LT(mq.stats().counterValue("rx_write_ops"), msgs.size());
        EXPECT_GT(mq.stats().counterValue("rx_coalesced"), 0u);
        EXPECT_EQ(mq.stats().counterValue("rx_pushed"), msgs.size());
        // ...and the accelerator swept some of them in one poll.
        EXPECT_GT(gio.stats().counterValue("rx_bursts"), 0u);
    }
}

/** The §5.1 write-barrier mode cannot coalesce across slots: the
 *  batch call must degrade to the 3-op per-message sequence with
 *  nothing lost. */
TEST(Batching, WriteBarrierModeFallsBackToPerMessagePushes)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.maxBatch = 4;
    cfg.rxWrite = core::RxWrite::Barrier;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(5);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 6; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint32_t> gotTags;
    sim::spawn(r.s, pushAll(r, mq, msgs, 9, cfg.maxBatch));
    sim::spawn(r.s, recvAll(gio, msgs.size(), got, gotTags));
    r.s.run();

    ASSERT_EQ(got.size(), msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i)
        EXPECT_EQ(got[i], msgs[i]) << "message " << i;
    // 3 QP ops per message (data write, read barrier, doorbell).
    EXPECT_EQ(mq.stats().counterValue("rx_write_ops"), 3 * msgs.size());
    EXPECT_EQ(mq.stats().counterValue("rx_coalesced"), 0u);
    EXPECT_EQ(mq.stats().counterValue("rx_pushed"), msgs.size());
}

/** maxBatch = 1 must be indistinguishable from the seed's sequential
 *  rxPush loop — same bytes, same simulated completion time. */
TEST(Batching, MaxBatchOneMatchesSequentialPushTiming)
{
    auto runOnce = [](bool viaBatchCall) {
        Rig r;
        SnicMqueueConfig cfg; // maxBatch = 1
        auto mq = std::make_unique<SnicMqueue>(r.s, "mq", r.qp, r.layout,
                                               MqueueKind::Server, cfg);
        auto gio = std::make_unique<AccelQueue>(r.s, "gio", r.mem,
                                                r.layout);
        sim::Rng rng(3);
        std::vector<std::vector<std::uint8_t>> msgs;
        for (int i = 0; i < 40; ++i)
            msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

        std::vector<std::vector<std::uint8_t>> got;
        std::vector<std::uint32_t> gotTags;
        auto pushSequential = [&]() -> sim::Task {
            for (std::size_t i = 0; i < msgs.size(); ++i) {
                while (!co_await mq->rxPush(
                    r.core, msgs[i], static_cast<std::uint32_t>(i)))
                    co_await sim::sleep(2_us);
            }
        };
        if (viaBatchCall)
            sim::spawn(r.s, pushAll(r, *mq, msgs, 9, 5));
        else
            sim::spawn(r.s, pushSequential());
        sim::spawn(r.s, recvAll(*gio, msgs.size(), got, gotTags));
        r.s.run();
        EXPECT_EQ(got.size(), msgs.size());
        EXPECT_EQ(got, msgs);
        return r.s.now();
    };
    EXPECT_EQ(runOnce(true), runOnce(false));
}

/** pollTxBatch must return every ready slot, in order and intact,
 *  for ONE fetch op — where one-slot fetches would have paid one per
 *  message. */
TEST(Batching, PollTxBatchDrainsReadySlotsInOneFetch)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.maxBatch = 8;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(7);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 5; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto accelSend = [&]() -> sim::Task {
        for (std::size_t i = 0; i < msgs.size(); ++i)
            co_await gio.send(static_cast<std::uint32_t>(i), msgs[i]);
    };
    std::vector<core::TxMessage> popped;
    auto snicDrain = [&]() -> sim::Task {
        co_await sim::sleep(50_us); // let every doorbell land first
        co_await mq.pollTxBatch(r.core, 8, popped);
        co_await mq.commitTxCons(r.core);
    };
    sim::spawn(r.s, accelSend());
    sim::spawn(r.s, snicDrain());
    r.s.run();

    ASSERT_EQ(popped.size(), msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(popped[i].payload, msgs[i]) << "message " << i;
        EXPECT_EQ(popped[i].tag, i);
    }
    EXPECT_EQ(mq.stats().counterValue("tx_fetch_ops"), 1u);
    EXPECT_EQ(mq.stats().counterValue("tx_popped"), msgs.size());
    EXPECT_EQ(mq.stats().counterValue("tx_cons_commits"), 1u);
}

/**
 * Golden seed-equivalence test: with every batching knob at its
 * default, five sequential 64 B echoes through the full Lynx-on-host
 * runtime complete at exactly the simulated timestamps the unbatched
 * seed produced. Any timing drift in the default paths — however
 * small — fails this test.
 */
TEST(Batching, DefaultsReproduceSeedEchoTimestampsExactly)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores, server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 0));
    rt.start();

    net::Endpoint &ep = client.bind(net::Protocol::Udp, 30000);
    std::vector<sim::Tick> stamps;
    auto clientTask = [&]() -> sim::Task {
        for (int i = 0; i < 5; ++i) {
            net::Message m;
            m.src = {client.node(), 30000};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload.assign(64, static_cast<std::uint8_t>(i));
            co_await client.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 64u);
            stamps.push_back(s.now());
        }
    };
    sim::spawn(s, clientTask());
    s.runUntil(10_ms);

    const std::vector<sim::Tick> seedStamps{11763, 23526, 35289, 47052,
                                            58815};
    EXPECT_EQ(stamps, seedStamps);
}

/**
 * End-to-end correctness with every batching knob ON: concurrent
 * clients hammer a batched Lynx-on-Bluefield echo service; every
 * response must echo its request byte-for-byte and arrive in per-
 * client order, and the counters must show genuine multi-slot
 * coalescing, pipelined TX drains and accelerator-side bursts.
 */
TEST(Batching, BatchedRuntimeEchoesConcurrentClientsFaithfully)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.maxBatch = 8;
    cfg.dispatchFlushLinger = 30_us;
    cfg.forwarder.maxBatch = 8;
    cfg.forwarder.pollBackoffMin = calibration::snicPollBackoffMin;
    cfg.gio.rxBurst = true;
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 0));
    rt.start();

    constexpr int kClients = 12;
    constexpr int kPerClient = 25;
    int done = 0;
    auto clientTask = [&](int c) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(40000 + c);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int i = 0; i < kPerClient; ++i) {
            std::vector<std::uint8_t> payload(64);
            for (std::size_t b = 0; b < payload.size(); ++b)
                payload[b] = static_cast<std::uint8_t>(c * 31 + i + b);
            net::Message m;
            m.src = {clientNic.node(), port};
            m.dst = {bf.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = payload;
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            // Byte fidelity and per-client (tag) order: the echoed
            // payload is exactly the i-th request's.
            EXPECT_EQ(r.payload, payload)
                << "client " << c << " message " << i;
            ++done;
        }
    };
    for (int c = 0; c < kClients; ++c)
        sim::spawn(s, clientTask(c));
    s.runUntil(500_ms);

    EXPECT_EQ(done, kClients * kPerClient);
    std::uint64_t coalesced = 0, fetched = 0, popped = 0;
    for (const auto &mq : rt.mqueues()) {
        coalesced += mq->stats().counterValue("rx_coalesced");
        fetched += mq->stats().counterValue("tx_fetch_ops");
        popped += mq->stats().counterValue("tx_popped");
    }
    EXPECT_GT(coalesced, 0u);
    EXPECT_LT(fetched, popped); // pipelined drains actually batched
}

/** An echo loop over recv()/send() directly, as the ported
 *  accelerator codes (VCA, Innova) use them. */
sim::Task
recvSendEcho(AccelQueue &q)
{
    for (;;) {
        core::GioMessage m = co_await q.recv();
        co_await q.send(m.tag, m.payload);
    }
}

/**
 * With rxBurst on, every message a one-message receive hands to the
 * application is stamped AppStart, the first of each sweep as well as
 * the staged rest: the app_start stage holds one sample per finished
 * span, so no request's accelerator wait is folded into app_end.
 * Checked through the echo service (recvBatch(1)) and through a bare
 * recv()/send() loop.
 */
TEST(Batching, RxBurstStampsAppStartOnEveryMessage)
{
    for (bool bareRecv : {false, true}) {
        sim::Simulator s;
        net::Network nw(s);
        snic::Bluefield bf(s, nw, "bf0");
        auto &clientNic = nw.addNic("client");
        pcie::Fabric fabric(s, "pcie");
        accel::Gpu gpu(s, "k40m", fabric);
        sim::SpanCollector spans(s);

        core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
        cfg.mq.maxBatch = 8;
        cfg.dispatchFlushLinger = 30_us;
        cfg.gio.rxBurst = true;
        core::Runtime rt(s, cfg);
        auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                        rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "echo";
        scfg.port = 7000;
        scfg.queuesPerAccel = 1;
        auto &svc = rt.addService(scfg);
        auto queues = rt.makeAccelQueues(svc, accel);
        if (bareRecv)
            sim::spawn(s, recvSendEcho(*queues[0]));
        else
            sim::spawn(s, apps::runEchoBlock(gpu, *queues[0], 2_us));
        rt.start();

        constexpr int kClients = 8;
        constexpr int kPerClient = 10;
        auto clientTask = [&](int c) -> sim::Task {
            std::uint16_t port = static_cast<std::uint16_t>(40000 + c);
            net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
            for (int i = 0; i < kPerClient; ++i) {
                net::Message m;
                m.src = {clientNic.node(), port};
                m.dst = {bf.node(), 7000};
                m.proto = net::Protocol::Udp;
                m.payload.assign(64, static_cast<std::uint8_t>(c + i));
                m.traceId = spans.begin(s.now());
                co_await clientNic.send(std::move(m));
                net::Message r = co_await ep.recv();
                spans.finish(r.traceId, s.now());
            }
        };
        for (int c = 0; c < kClients; ++c)
            sim::spawn(s, clientTask(c));
        s.runUntil(500_ms);

        ASSERT_EQ(spans.finished(),
                  static_cast<std::uint64_t>(kClients * kPerClient))
            << "bareRecv " << bareRecv;
        EXPECT_EQ(spans.stageHistogram(sim::Stage::AppStart).count(),
                  spans.finished())
            << "bareRecv " << bareRecv;
        // Real multi-message sweeps happened, so both the first
        // message of a sweep and staged ones were delivered.
        sim::StatSet &gs = queues[0]->stats();
        EXPECT_GT(gs.counterValue("rx_msgs"), gs.counterValue("rx_bursts"))
            << "bareRecv " << bareRecv;
    }
}
