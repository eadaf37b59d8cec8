/**
 * @file
 * Failure-injection tests: backend timeouts surface as mqueue error
 * statuses (paper §5.1: the metadata carries "error status from the
 * Bluefield (if a connection error is detected)"), oversized payloads
 * panic loudly, and drops are accounted.
 */

#include <gtest/gtest.h>

#include <memory>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "apps/kvstore.hh"
#include "host/node.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "snic/bluefield.hh"
#include "sim/simulator.hh"
#include "workload/datagen.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

struct Rig
{
    sim::Simulator s;
    net::Network nw{s};
    snic::Bluefield bf{s, nw, "bf0"};
    net::Nic &clientNic = nw.addNic("client");
    host::Node dbHost{s, nw, "db-host"};
    pcie::Fabric fabric{s, "pcie"};
    accel::Gpu gpu{s, "k40m", fabric};
};

} // namespace

TEST(LynxErrors, BackendTimeoutSurfacesAsErrorStatus)
{
    Rig r;
    // NOTE: no KV server is started on db-host; port 11211 is dead.
    core::Runtime rt(r.s, r.bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", r.gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "facever";
    scfg.port = 7100;
    auto &svc = rt.addService(scfg);
    auto serverQs = rt.makeAccelQueues(svc, accel);
    auto cq = rt.addClientQueue(accel, "db", {r.dbHost.id(), 11211},
                                net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(cq);
    sim::spawn(r.s, apps::runFaceVerWorker(r.gpu, *serverQs[0], *dbQ));
    rt.start();

    auto &cliEp = r.clientNic.bind(net::Protocol::Udp, 40000);
    std::uint8_t verdict = 0xff;
    auto client = [&]() -> sim::Task {
        std::string label = workload::faceLabel(0);
        auto img = workload::synthFace(0, 1);
        net::Message m;
        m.src = {r.clientNic.node(), 40000};
        m.dst = {r.bf.node(), 7100};
        m.proto = net::Protocol::Udp;
        m.payload.assign(label.begin(), label.end());
        m.payload.insert(m.payload.end(), img.begin(), img.end());
        co_await r.clientNic.send(std::move(m));
        net::Message resp = co_await cliEp.recv();
        verdict = resp.payload.at(0);
    };
    sim::spawn(r.s, client());
    r.s.run();

    EXPECT_EQ(verdict,
              static_cast<std::uint8_t>(apps::FaceVerResult::BackendError));
    // The error came through the backend-timeout path (50 ms default).
    EXPECT_EQ(rt.stats().counterValue("backend_timeouts"), 1u);
    EXPECT_EQ(rt.stats().counterValue("backend_responses"), 0u);
}

TEST(LynxErrors, LateResponsesAfterTimeoutAreIgnoredGracefully)
{
    Rig r;
    core::Runtime rt(r.s, r.bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", r.gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7100;
    auto &svc = rt.addService(scfg);
    auto serverQs = rt.makeAccelQueues(svc, accel);
    auto cq = rt.addClientQueue(accel, "db", {r.dbHost.id(), 9000},
                                net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(cq);
    rt.start();

    // A "slow" backend answering after the 50 ms route timeout.
    auto &dbEp = r.dbHost.nic().bind(net::Protocol::Tcp, 9000);
    auto backend = [&]() -> sim::Task {
        net::Message m = co_await dbEp.recv();
        co_await sim::sleep(80_ms); // > responseTimeout
        net::Message resp;
        resp.src = {r.dbHost.id(), 9000};
        resp.dst = m.src;
        resp.proto = net::Protocol::Tcp;
        resp.payload = {1, 2, 3};
        co_await r.dbHost.nic().send(std::move(resp));
    };
    sim::spawn(r.s, backend());

    core::GioMessage got;
    auto accelLogic = [&]() -> sim::Task {
        std::vector<std::uint8_t> req{9};
        co_await dbQ->send(7, req);
        got = co_await dbQ->recv();
    };
    sim::spawn(r.s, accelLogic());
    sim::Task unused;
    (void)unused;
    // Kick the server mqueue path too so the service isn't idle.
    r.s.runUntil(200_ms);

    EXPECT_EQ(got.err, 1u);  // timeout surfaced
    EXPECT_EQ(got.tag, 7u);
    EXPECT_TRUE(got.payload.empty());
    // The late arrival must not crash or mis-match (warned + dropped).
    EXPECT_EQ(rt.stats().counterValue("backend_timeouts"), 1u);
}

TEST(LynxErrors, HealthyBackendStillWorksWithTimeoutMachinery)
{
    Rig r;
    apps::KvStore kv;
    kv.set("k", {42});
    apps::KvServerConfig kcfg;
    kcfg.nic = &r.dbHost.nic();
    kcfg.proto = net::Protocol::Tcp;
    kcfg.stack = calibration::backendTcpXeon();
    kcfg.cores = {&r.dbHost.cores()[0]};
    apps::KvServer kvServer(r.s, kv, kcfg);
    kvServer.start();

    core::Runtime rt(r.s, r.bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", r.gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7100;
    auto &svc = rt.addService(scfg);
    (void)svc;
    auto cq = rt.addClientQueue(accel, "db", {r.dbHost.id(), 11211},
                                net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(cq);
    rt.start();

    int rounds = 0;
    auto accelLogic = [&]() -> sim::Task {
        for (int i = 0; i < 20; ++i) {
            auto req = apps::kvEncodeGet("k");
            co_await dbQ->send(static_cast<std::uint32_t>(i), req);
            core::GioMessage resp = co_await dbQ->recv();
            EXPECT_EQ(resp.err, 0u);
            auto kvResp = apps::kvDecodeResponse(resp.payload);
            EXPECT_EQ(kvResp.status, apps::KvStatus::Ok);
            EXPECT_EQ(kvResp.value, (std::vector<std::uint8_t>{42}));
            ++rounds;
        }
    };
    sim::spawn(r.s, accelLogic());
    r.s.run();
    EXPECT_EQ(rounds, 20);
    EXPECT_EQ(rt.stats().counterValue("backend_timeouts"), 0u);
}

TEST(LynxErrorsDeath, OversizedPayloadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rig r;
    core::Runtime rt(r.s, r.bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", r.gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    scfg.slotBytes = 256;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    auto worker = [&]() -> sim::Task {
        std::vector<std::uint8_t> tooBig(1024, 1);
        co_await queues[0]->send(0, tooBig);
    };
    EXPECT_DEATH(
        {
            sim::spawn(r.s, worker());
            r.s.run();
        },
        "exceeds slot");
}

TEST(LynxErrors, OversizedNetworkRequestIsDropped)
{
    // A request bigger than the ring slot must be dropped at the
    // dispatcher, not crash the SNIC.
    Rig r;
    core::Runtime rt(r.s, r.bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", r.gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    scfg.slotBytes = 256;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(r.s, apps::runEchoBlock(r.gpu, *queues[0], 0));
    rt.start();

    auto client = [&]() -> sim::Task {
        net::Message m;
        m.src = {r.clientNic.node(), 40000};
        m.dst = {r.bf.node(), 7000};
        m.proto = net::Protocol::Udp;
        m.payload.assign(1024, 0xee); // > slot capacity
        co_await r.clientNic.send(std::move(m));
    };
    r.clientNic.bind(net::Protocol::Udp, 40000);
    sim::spawn(r.s, client());
    r.s.run();
    EXPECT_EQ(svc.dispatcher().stats().counterValue("dropped_oversized"),
              1u);
    EXPECT_EQ(queues[0]->stats().counterValue("rx_msgs"), 0u);
}

TEST(LynxErrors, UdpOverflowDropsAreCountedUnderBatchedLynxPath)
{
    // A line-rate burst into a tiny ingress queue with every batching
    // knob on: the NIC must overflow, and every accepted frame must
    // be accounted — consumed by a listener, dropped at the endpoint
    // queue (rx_drop_udp), or dropped by the dispatcher — with the
    // endpoint's own dropped() agreeing with the NIC counter.
    sim::Simulator s;
    net::Network nw(s);
    snic::BluefieldConfig bcfg;
    bcfg.nic.queueDepth = 8; // force overflow under the burst
    snic::Bluefield bf(s, nw, "bf0", bcfg);
    auto &clientNic = nw.addNic("client");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.maxBatch = 8;
    cfg.forwarder.maxBatch = 8;
    cfg.gio.rxBurst = true;
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runEchoBlock(gpu, *queues[0], 0));
    rt.start();

    constexpr int kBurst = 400;
    int got = 0;
    auto &ep = clientNic.bind(net::Protocol::Udp, 40000);
    auto flood = [&]() -> sim::Task {
        for (int i = 0; i < kBurst; ++i) {
            net::Message m;
            m.src = {clientNic.node(), 40000};
            m.dst = {bf.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload.assign(64, static_cast<std::uint8_t>(i));
            co_await clientNic.send(std::move(m));
        }
    };
    auto receiver = [&]() -> sim::Task {
        for (;;) {
            (void)co_await ep.recv();
            ++got;
        }
    };
    sim::spawn(s, flood());
    sim::spawn(s, receiver());
    s.runUntil(100_ms);

    auto &bfStats = bf.nic().stats();
    std::uint64_t drops = bfStats.counterValue("rx_drop_udp");
    EXPECT_GT(drops, 0u);
    // The per-endpoint count and the NIC-wide counter must agree.
    EXPECT_EQ(svc.endpoint().dropped(), drops);
    EXPECT_EQ(svc.endpoint().backlog(), 0u);
    // NIC-level conservation: accepted == consumed + overflow-dropped.
    EXPECT_EQ(bfStats.counterValue("rx_msgs"), kBurst);
    EXPECT_EQ(rt.stats().counterValue("rx_msgs") + drops,
              static_cast<std::uint64_t>(kBurst));
    // Dispatcher-level conservation: everything a listener consumed
    // was dispatched or dropped-with-a-counter, and every dispatched
    // request was answered.
    auto &ds = svc.dispatcher().stats();
    EXPECT_EQ(ds.counterValue("dispatched") +
                  ds.counterValue("dropped_ring_full") +
                  ds.counterValue("dropped_no_tag") +
                  ds.counterValue("dropped_oversized"),
              rt.stats().counterValue("rx_msgs"));
    EXPECT_EQ(static_cast<std::uint64_t>(got),
              ds.counterValue("dispatched"));
}

TEST(LynxErrors, ServiceSurvivesLossyFabric)
{
    // 20% fabric loss: clients time out and retry; every response
    // that does arrive is correct; Lynx state (tags, rings) stays
    // consistent throughout.
    sim::Simulator s;
    net::NetworkConfig ncfg;
    ncfg.lossRate = 0.2;
    net::Network nw(s, ncfg);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    (void)svc;
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runEchoBlock(gpu, *queues[0], 5_us));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 4;
    lg.warmup = 1_ms;
    lg.duration = 60_ms;
    lg.requestTimeout = 1_ms; // fast retry on loss
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 5_ms);

    // ~36% of attempts lose a leg (request or response); each loss
    // costs a 1 ms timeout, so throughput drops sharply but service
    // correctness must be untouched.
    EXPECT_GT(gen.completed(), 300u);
    EXPECT_GT(gen.timeouts(), 50u); // loss really happened
    EXPECT_EQ(gen.validationFailures(), 0u);
    EXPECT_GT(nw.stats().counterValue("dropped_in_fabric"), 100u);
}
