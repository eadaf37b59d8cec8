/**
 * @file
 * End-to-end integration tests of the Lynx runtime: client → network
 * → SNIC (network server, dispatcher, RDMA) → accelerator mqueue →
 * gio echo logic → forwarder → client. Every payload byte is checked.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/memory.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using core::AccelQueue;
using core::Runtime;
using core::RuntimeConfig;
using core::ServiceConfig;

namespace {

/** A complete single-machine Lynx deployment with one accelerator. */
struct Deployment
{
    sim::Simulator s;
    net::Network nw{s};
    net::Nic &snicNic = nw.addNic("snic");
    net::Nic &clientNic = nw.addNic("client");
    net::Nic &backendNic = nw.addNic("backend");
    sim::CorePool snicCores{s, "snic.arm", 7};
    pcie::DeviceMemory accelMem{"gpu0.mem", 4 << 20};
    std::unique_ptr<Runtime> rt;

    explicit Deployment(int listeners = 2)
    {
        RuntimeConfig cfg;
        for (std::size_t i = 0; i < snicCores.size(); ++i)
            cfg.cores.push_back(&snicCores[i]);
        cfg.nic = &snicNic;
        cfg.stack = calibration::vmaXeon();
        cfg.listenersPerService = listeners;
        rt = std::make_unique<Runtime>(s, cfg);
    }
};

/** Accelerator-side echo worker: reply with the payload reversed. */
sim::Task
echoWorker(AccelQueue &q)
{
    for (;;) {
        core::GioMessage m = co_await q.recv();
        std::vector<std::uint8_t> resp(m.payload.rbegin(),
                                       m.payload.rend());
        co_await q.send(m.tag, resp);
    }
}

} // namespace

TEST(LynxRuntime, EndToEndEchoOverUdp)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    sim::spawn(d.s, echoWorker(*queues[0]));
    d.rt->start();

    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 40000);
    std::vector<std::uint8_t> req{1, 2, 3, 4};
    net::Message resp;
    sim::Tick respAt = 0;
    auto client = [&]() -> sim::Task {
        net::Message m;
        m.src = {d.clientNic.node(), 40000};
        m.dst = {d.snicNic.node(), 7000};
        m.proto = net::Protocol::Udp;
        m.payload = req;
        m.sentAt = d.s.now();
        m.seq = 42;
        co_await d.clientNic.send(std::move(m));
        resp = co_await cliEp.recv();
        respAt = d.s.now();
    };
    sim::spawn(d.s, client());
    d.s.run();

    EXPECT_EQ(resp.payload, (std::vector<std::uint8_t>{4, 3, 2, 1}));
    EXPECT_EQ(resp.seq, 42u);       // generator bookkeeping echoed
    EXPECT_EQ(resp.src.port, 7000); // response comes from the service
    EXPECT_GT(respAt, 0u);
    // Sanity on the latency scale: an e2e zero-work request is on
    // the order of 10-30 us (paper §6.2: ~19-25 us).
    EXPECT_LT(respAt, 60_us);
    EXPECT_EQ(d.rt->stats().counterValue("rx_msgs"), 1u);
}

namespace {

/** The sim.engine counters after @p requests closed-loop echoes, each
 *  awaited with a 200 ms receive deadline. */
std::vector<std::uint64_t>
echoEngineCounts(int requests)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    sim::spawn(d.s, echoWorker(*queues[0]));
    d.rt->start();

    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 40000);
    int answered = 0;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < requests; ++i) {
            net::Message m;
            m.src = {d.clientNic.node(), 40000};
            m.dst = {d.snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>{1, 2, 3, 4};
            m.seq = static_cast<std::uint64_t>(i);
            co_await d.clientNic.send(std::move(m));
            if (co_await workload::recvTimeout(d.s, cliEp, 200_ms))
                ++answered;
        }
    };
    sim::spawn(d.s, client());
    d.s.run();
    EXPECT_EQ(answered, requests);

    const sim::MetricsRegistry &m = d.s.metrics();
    std::vector<std::uint64_t> counts;
    for (const char *name : {"near_pushes", "far_pushes", "ready_events",
                             "closure_events", "frames_started"})
        counts.push_back(m.aggregateCounter("sim.engine", name));
    // Every event fired was scheduled into exactly one of the two
    // heaps or the ready ring.
    EXPECT_EQ(counts[0] + counts[1] + counts[2],
              d.s.eventsExecuted() + d.s.pendingEvents());
    return counts;
}

} // namespace

TEST(LynxRuntime, EngineCountersCountAnEchoDeterministically)
{
    const std::vector<std::uint64_t> counts = echoEngineCounts(20);
    const std::uint64_t nearPushes = counts[0], farPushes = counts[1],
                        ready = counts[2], closures = counts[3],
                        frames = counts[4];
    // The endpoint's one deadline timer is the only far entry: it is
    // armed for the first request's 200 ms deadline and, since the
    // echoes end well inside that span, never re-armed.
    EXPECT_EQ(farPushes, 1u);
    EXPECT_GT(nearPushes, 20u);
    EXPECT_GT(ready, 0u);
    EXPECT_GT(closures, 0u);
    EXPECT_LE(closures, nearPushes + farPushes + ready);
    // At least the client, the worker and one Co per send.
    EXPECT_GT(frames, 20u);
    // Counts are per simulator: a rerun in the same process reads the
    // same numbers, not a running total.
    EXPECT_EQ(echoEngineCounts(20), counts);
}

TEST(LynxRuntime, ManyRequestsManyQueuesRoundRobin)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    ASSERT_EQ(queues.size(), 4u);
    for (auto &q : queues)
        sim::spawn(d.s, echoWorker(*q));
    d.rt->start();

    const int total = 200;
    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 40000);
    std::map<std::uint64_t, std::vector<std::uint8_t>> responses;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < total; ++i) {
            net::Message m;
            m.src = {d.clientNic.node(), 40000};
            m.dst = {d.snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = {static_cast<std::uint8_t>(i),
                         static_cast<std::uint8_t>(i >> 8), 0x5a};
            m.seq = static_cast<std::uint64_t>(i);
            m.sentAt = d.s.now();
            co_await d.clientNic.send(std::move(m));
            // Closed loop: wait for the echo before the next send.
            net::Message r = co_await cliEp.recv();
            responses[r.seq] = r.payload.toVector();
        }
    };
    sim::spawn(d.s, client());
    d.s.run();

    ASSERT_EQ(responses.size(), static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i) {
        std::vector<std::uint8_t> expect{
            0x5a, static_cast<std::uint8_t>(i >> 8),
            static_cast<std::uint8_t>(i)};
        EXPECT_EQ(responses[i], expect) << "request " << i;
    }
    // Round-robin used every queue.
    for (auto &q : queues)
        EXPECT_EQ(q->stats().counterValue("rx_msgs"),
                  static_cast<std::uint64_t>(total) / 4);
}

TEST(LynxRuntime, SourceHashSteersClientsConsistently)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    ServiceConfig scfg;
    scfg.name = "sticky";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    scfg.policy = core::DispatchPolicy::SourceHash;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(d.s, echoWorker(*q));
    d.rt->start();

    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 41000);
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < 40; ++i) {
            net::Message m;
            m.src = {d.clientNic.node(), 41000};
            m.dst = {d.snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = {1};
            co_await d.clientNic.send(std::move(m));
            (void)co_await cliEp.recv();
        }
    };
    sim::spawn(d.s, client());
    d.s.run();

    // One source address => exactly one queue got all 40 requests.
    int used = 0;
    for (auto &q : queues) {
        auto n = q->stats().counterValue("rx_msgs");
        EXPECT_TRUE(n == 0 || n == 40) << n;
        used += (n == 40);
    }
    EXPECT_EQ(used, 1);
}

TEST(LynxRuntime, TcpServiceWorks)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    ServiceConfig scfg;
    scfg.name = "echo-tcp";
    scfg.port = 7001;
    scfg.proto = net::Protocol::Tcp;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    sim::spawn(d.s, echoWorker(*queues[0]));
    d.rt->start();

    auto &cliEp = d.clientNic.bind(net::Protocol::Tcp, 40000);
    net::Message resp;
    auto client = [&]() -> sim::Task {
        net::Message m;
        m.src = {d.clientNic.node(), 40000};
        m.dst = {d.snicNic.node(), 7001};
        m.proto = net::Protocol::Tcp;
        m.payload = {0xaa, 0xbb};
        co_await d.clientNic.send(std::move(m));
        resp = co_await cliEp.recv();
    };
    sim::spawn(d.s, client());
    d.s.run();
    EXPECT_EQ(resp.payload, (std::vector<std::uint8_t>{0xbb, 0xaa}));
    EXPECT_EQ(resp.proto, net::Protocol::Tcp);
}

TEST(LynxRuntime, ClientQueueReachesBackendAndBack)
{
    // Accelerator-initiated I/O: the accel sends a request through a
    // client mqueue to a backend "database" and gets the answer back
    // in the same mqueue (the Face Verification pattern, §6.4).
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    // A service is still needed to trigger accel work.
    ServiceConfig scfg;
    scfg.name = "front";
    scfg.port = 7000;
    auto &svc = d.rt->addService(scfg);
    auto cq = d.rt->addClientQueue(accel, "db",
                                   {d.backendNic.node(), 9000},
                                   net::Protocol::Tcp);
    auto serverQs = d.rt->makeAccelQueues(svc, accel);
    auto dbQ = d.rt->makeAccelQueue(cq);
    d.rt->start();

    // Backend: a trivial "database" that doubles each byte.
    auto &dbEp = d.backendNic.bind(net::Protocol::Tcp, 9000);
    auto backend = [&]() -> sim::Task {
        for (;;) {
            net::Message m = co_await dbEp.recv();
            net::Message r;
            r.src = {d.backendNic.node(), 9000};
            r.dst = m.src;
            r.proto = net::Protocol::Tcp;
            r.seq = m.seq;
            r.sentAt = m.sentAt;
            for (auto b : m.payload)
                r.payload.push_back(static_cast<std::uint8_t>(2 * b));
            co_await d.backendNic.send(std::move(r));
        }
    };
    sim::spawn(d.s, backend());

    // Accelerator: front request -> ask backend -> respond with both.
    auto accelLogic = [&]() -> sim::Task {
        core::GioMessage req = co_await serverQs[0]->recv();
        co_await dbQ->send(1, req.payload);
        core::GioMessage dbResp = co_await dbQ->recv();
        EXPECT_EQ(dbResp.tag, 1u);
        std::vector<std::uint8_t> out = req.payload;
        out.insert(out.end(), dbResp.payload.begin(),
                   dbResp.payload.end());
        co_await serverQs[0]->send(req.tag, out);
    };
    sim::spawn(d.s, accelLogic());

    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 40000);
    net::Message resp;
    auto client = [&]() -> sim::Task {
        net::Message m;
        m.src = {d.clientNic.node(), 40000};
        m.dst = {d.snicNic.node(), 7000};
        m.proto = net::Protocol::Udp;
        m.payload = {3, 5};
        co_await d.clientNic.send(std::move(m));
        resp = co_await cliEp.recv();
    };
    sim::spawn(d.s, client());
    d.s.run();

    EXPECT_EQ(resp.payload, (std::vector<std::uint8_t>{3, 5, 6, 10}));
}

TEST(LynxRuntime, RemoteAcceleratorOnlyDiffersByPath)
{
    // §5.5: a remote accelerator is just a different path model.
    // remoteMem must outlive the Deployment: the runtime's mqueues keep
    // a doorbell watcher on it that ~SnicMqueue unregisters.
    pcie::DeviceMemory remoteMem("remote-gpu.mem", 4 << 20);
    Deployment d;
    auto localPath = rdma::RdmaPathModel{};
    auto remotePath =
        localPath.viaNetwork(calibration::rdmaRemoteExtraOneWay);
    auto &localAccel =
        d.rt->addAccelerator("gpu-local", d.accelMem, localPath);
    auto &remoteAccel =
        d.rt->addAccelerator("gpu-remote", remoteMem, remotePath);

    ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    auto &svc = d.rt->addService(scfg);
    auto localQs = d.rt->makeAccelQueues(svc, localAccel);
    auto remoteQs = d.rt->makeAccelQueues(svc, remoteAccel);
    sim::spawn(d.s, echoWorker(*localQs[0]));
    sim::spawn(d.s, echoWorker(*remoteQs[0]));
    d.rt->start();

    auto &cliEp = d.clientNic.bind(net::Protocol::Udp, 40000);
    std::vector<sim::Tick> latencies;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < 4; ++i) { // round robin: local, remote, ...
            net::Message m;
            m.src = {d.clientNic.node(), 40000};
            m.dst = {d.snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = {9};
            m.sentAt = d.s.now();
            sim::Tick t0 = d.s.now();
            co_await d.clientNic.send(std::move(m));
            (void)co_await cliEp.recv();
            latencies.push_back(d.s.now() - t0);
        }
    };
    sim::spawn(d.s, client());
    d.s.run();

    ASSERT_EQ(latencies.size(), 4u);
    // Requests 0,2 hit the local GPU; 1,3 the remote one. The remote
    // round trips add ~8 us (paper §6.3: "about 8 usec").
    sim::Tick localLat = latencies[0];
    sim::Tick remoteLat = latencies[1];
    double extraUs = sim::toMicroseconds(remoteLat - localLat);
    EXPECT_GT(extraUs, 4.0);
    EXPECT_LT(extraUs, 14.0);
    EXPECT_EQ(localQs[0]->stats().counterValue("rx_msgs"), 2u);
    EXPECT_EQ(remoteQs[0]->stats().counterValue("rx_msgs"), 2u);
}
