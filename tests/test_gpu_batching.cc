/**
 * @file
 * Tests for accelerator-side dynamic request batching: the
 * occupancy-aware GPU cost model (batchedDuration / batchedLaunch),
 * batched gio I/O (recvBatch / tryRecvBatch / sendBatch), the
 * bit-identical batched LeNet and LBP compute paths, the batched
 * service loops, the vector-scale tail-byte regression, and — most
 * importantly — that defaults (and even batching ON under serial
 * load) reproduce the seed LeNet timestamps exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "apps/kvstore.hh"
#include "apps/lbp.hh"
#include "apps/lenet.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "lynx/mqueue.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::GioMessage;
using lynx::core::GioTxItem;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SnicMqueue;
using lynx::core::SnicMqueueConfig;

namespace {

struct Rig
{
    explicit Rig(std::uint32_t slotBytes = 256)
        : layout{0, 8, slotBytes}
    {
    }

    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout;
};

std::vector<std::uint8_t>
randomPayload(sim::Rng &rng, std::size_t maxLen)
{
    std::vector<std::uint8_t> p(1 + rng.below(maxLen));
    for (auto &b : p)
        b = static_cast<std::uint8_t>(rng.below(256));
    return p;
}

} // namespace

/*
 * ----- GPU cost model -----
 */

TEST(GpuBatching, ConfigDefaultsMatchCalibrationConstants)
{
    accel::GpuConfig cfg;
    EXPECT_EQ(cfg.batchMarginalItemCost,
              calibration::gpuBatchMarginalItemCost);
    EXPECT_EQ(cfg.batchOccupancySaturation,
              calibration::gpuBatchOccupancySaturation);
}

TEST(GpuBatching, BatchedDurationModelShape)
{
    sim::Simulator s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    const sim::Tick d = 10000;

    // n = 1 reproduces the unbatched duration exactly.
    EXPECT_EQ(gpu.batchedDuration(d, 1), d);

    // Monotone in n, and sublinear below the saturation point.
    const int sat = gpu.config().batchOccupancySaturation;
    sim::Tick prev = gpu.batchedDuration(d, 1);
    for (int n = 2; n <= sat; ++n) {
        sim::Tick cur = gpu.batchedDuration(d, n);
        EXPECT_GE(cur, prev) << "n=" << n;
        EXPECT_LT(cur, d * static_cast<sim::Tick>(n)) << "n=" << n;
        prev = cur;
    }
    // Past saturation every extra item costs full serial time.
    EXPECT_EQ(gpu.batchedDuration(d, sat + 3),
              gpu.batchedDuration(d, sat) + 3 * d);
}

TEST(GpuBatching, BatchedLaunchTickExactWithDeviceLaunchAtN1)
{
    sim::Simulator s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    sim::Tick dPlain = 0, dBatched = 0;
    auto run = [&]() -> sim::Task {
        sim::Tick t0 = s.now();
        co_await gpu.deviceLaunch(4, 5_us);
        dPlain = s.now() - t0;
        t0 = s.now();
        co_await gpu.batchedLaunch(4, 5_us, 1);
        dBatched = s.now() - t0;
    };
    sim::spawn(s, run());
    s.run();
    EXPECT_GT(dPlain, 0u);
    EXPECT_EQ(dPlain, dBatched);
    EXPECT_EQ(gpu.stats().counterValue("batched_items"), 1u);
}

/** The unbatched services are batches of one, so one item must cost
 *  exactly the scalar kernel for every duration they charge: each
 *  LeNet layer, the fused LeNet kernel, the LBP compare, and random
 *  durations up to 10 s, on a clock-scaled GPU as well. */
TEST(GpuBatching, OneItemBatchCostsExactlyTheScalarKernel)
{
    std::vector<sim::Tick> durations{
        calibration::lenetConv1, calibration::lenetPool1,
        calibration::lenetConv2, calibration::lenetPool2,
        calibration::lenetFc1,   calibration::lenetFc2,
        calibration::lenetSoftmax, calibration::lbpKernelTime};
    sim::Tick fused = 0;
    for (std::size_t i = 0; i + 1 < durations.size(); ++i)
        fused += durations[i];
    durations.push_back(fused);
    sim::Rng rng(41);
    for (int i = 0; i < 200; ++i)
        durations.push_back(1 + rng.below(10'000'000'000'000ull));

    for (double scale : {1.0, 1.06}) {
        sim::Simulator s;
        pcie::Fabric fabric(s, "pcie");
        accel::GpuConfig gcfg;
        gcfg.clockScale = scale;
        accel::Gpu gpu(s, "gpu", fabric, gcfg);
        for (sim::Tick d : durations)
            EXPECT_EQ(gpu.batchedDuration(d, 1), d) << "d=" << d;
        std::vector<sim::Tick> plain, batched;
        auto run = [&]() -> sim::Task {
            for (std::size_t i = 0; i < 9; ++i) {
                sim::Tick t0 = s.now();
                co_await gpu.deviceLaunch(200, durations[i]);
                plain.push_back(s.now() - t0);
                t0 = s.now();
                co_await gpu.batchedLaunch(200, durations[i], 1);
                batched.push_back(s.now() - t0);
            }
        };
        sim::spawn(s, run());
        s.run();
        ASSERT_EQ(plain.size(), 9u) << "scale " << scale;
        EXPECT_EQ(plain, batched) << "scale " << scale;
    }
}

/*
 * ----- Bit-identical batched compute -----
 */

TEST(GpuBatching, LenetForwardBatchBitIdenticalToScalarForward)
{
    // forwardBatch and forward share one kernel, so this pins the
    // batch plumbing (scratch reuse across images, result order); the
    // kernel's own floats are pinned in test_apps_lenet.cc.
    apps::LeNet net;
    for (int batch : {1, 3, 8, 13}) {
        std::vector<std::vector<std::uint8_t>> imgs;
        for (int i = 0; i < batch; ++i)
            imgs.push_back(workload::synthMnist(
                (i + batch) % 10, static_cast<std::uint64_t>(i)));
        std::vector<std::span<const std::uint8_t>> spans(imgs.begin(),
                                                         imgs.end());
        auto batched = net.forwardBatch(spans);
        ASSERT_EQ(batched.size(), imgs.size());
        for (std::size_t i = 0; i < imgs.size(); ++i) {
            auto scalar = net.forward(imgs[i]);
            EXPECT_EQ(std::memcmp(batched[i].data(), scalar.data(),
                                  sizeof scalar),
                      0)
                << "batch " << batch << ", image " << i;
        }
        auto digits = net.classifyBatch(spans);
        for (std::size_t i = 0; i < imgs.size(); ++i)
            EXPECT_EQ(digits[i], net.classify(imgs[i]))
                << "batch " << batch << ", image " << i;
    }
}

TEST(GpuBatching, LbpBatchBitIdenticalToScalar)
{
    std::vector<std::vector<std::uint8_t>> probes, enrolled;
    for (std::uint32_t i = 0; i < 9; ++i) {
        probes.push_back(workload::synthFace(i, 1));
        enrolled.push_back(
            workload::synthFace(i % 3 == 0 ? i : i + 5, 0));
    }
    // Noise and flat images, whose codes differ most from a face's
    // at the clamped border.
    sim::Rng rng(5);
    for (int i = 0; i < 3; ++i) {
        std::vector<std::uint8_t> noise(32 * 32);
        for (auto &px : noise)
            px = static_cast<std::uint8_t>(rng.below(256));
        probes.push_back(noise);
        enrolled.push_back(i == 0 ? noise : workload::synthFace(2, 0));
    }
    probes.emplace_back(32 * 32, 0);
    enrolled.emplace_back(32 * 32, 255);
    probes.emplace_back(32 * 32, 77);
    enrolled.emplace_back(32 * 32, 77);
    std::vector<apps::LbpPair> pairs;
    for (std::size_t i = 0; i < probes.size(); ++i)
        pairs.push_back({probes[i], enrolled[i]});
    auto dist = apps::lbpDistanceBatch(pairs, 32, 32);
    auto ver = apps::lbpVerifyBatch(pairs, 32, 32,
                                    apps::faceVerThreshold);
    ASSERT_EQ(dist.size(), pairs.size());
    ASSERT_EQ(ver.size(), pairs.size());
    bool sawMatch = false, sawMismatch = false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_EQ(dist[i],
                  apps::lbpDistance(probes[i], enrolled[i], 32, 32))
            << "pair " << i;
        bool scalar = apps::lbpVerify(probes[i], enrolled[i], 32, 32,
                                      apps::faceVerThreshold);
        EXPECT_EQ(ver[i] != 0, scalar) << "pair " << i;
        (scalar ? sawMatch : sawMismatch) = true;
    }
    EXPECT_TRUE(sawMatch);
    EXPECT_TRUE(sawMismatch);
}

/*
 * ----- Batched gio I/O -----
 */

/** recvBatch must deliver every message intact and in order over a
 *  tiny ring (constant wrap + flow control), with the batch counters
 *  proving multi-message sweeps happened. */
TEST(GpuBatching, RecvBatchFidelityAcrossWrapAndFlowControl)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.maxBatch = 5;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(17);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 40; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto push = [&]() -> sim::Task {
        std::size_t next = 0;
        while (next < msgs.size()) {
            std::size_t n = std::min<std::size_t>(
                1 + rng.below(5), msgs.size() - next);
            std::vector<SnicMqueue::RxItem> items;
            for (std::size_t j = 0; j < n; ++j)
                items.push_back({msgs[next + j],
                                 static_cast<std::uint32_t>(next + j),
                                 0});
            next += co_await mq.rxPushBatch(r.core, items);
            co_await sim::sleep(2_us);
        }
    };
    std::vector<std::vector<std::uint8_t>> got;
    std::vector<std::uint32_t> gotTags;
    auto drain = [&]() -> sim::Task {
        while (got.size() < msgs.size()) {
            std::vector<GioMessage> batch;
            co_await gio.recvBatch(4, batch);
            EXPECT_GE(batch.size(), 1u);
            EXPECT_LE(batch.size(), 4u);
            for (auto &m : batch) {
                got.push_back(std::move(m.payload));
                gotTags.push_back(m.tag);
            }
        }
    };
    sim::spawn(r.s, push());
    sim::spawn(r.s, drain());
    r.s.run();

    ASSERT_EQ(got.size(), msgs.size());
    EXPECT_EQ(got, msgs);
    for (std::size_t i = 0; i < gotTags.size(); ++i)
        EXPECT_EQ(gotTags[i], i);
    const sim::Histogram &sizes = gio.stats().histogram("batch.recv_size");
    std::uint64_t recvs = sizes.count();
    EXPECT_GT(recvs, 0u);
    EXPECT_EQ(sizes.sum(), static_cast<double>(msgs.size()));
    EXPECT_LT(recvs, msgs.size()); // real multi-message sweeps
}

/** sendBatch must commit every response intact and in order through
 *  ring wrap and flow control, pairing with the SNIC's pollTxBatch. */
TEST(GpuBatching, SendBatchFidelityAcrossWrapAndFlowControl)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.maxBatch = 8;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    sim::Rng rng(29);
    std::vector<std::vector<std::uint8_t>> msgs;
    for (int i = 0; i < 30; ++i)
        msgs.push_back(randomPayload(rng, r.layout.maxPayload()));

    auto accelSend = [&]() -> sim::Task {
        std::size_t next = 0;
        while (next < msgs.size()) {
            std::size_t n = std::min<std::size_t>(
                1 + rng.below(11), msgs.size() - next);
            std::vector<GioTxItem> items;
            for (std::size_t j = 0; j < n; ++j)
                items.push_back(
                    {static_cast<std::uint32_t>(next + j),
                     msgs[next + j], 0});
            // An 11-item batch over an 8-slot ring forces both the
            // wrap split and the flow-control stall inside one call.
            co_await gio.sendBatch(items);
            next += n;
        }
    };
    std::vector<core::TxMessage> popped;
    auto snicDrain = [&]() -> sim::Task {
        while (popped.size() < msgs.size()) {
            std::size_t before = popped.size();
            co_await mq.pollTxBatch(r.core, 8, popped);
            co_await mq.commitTxCons(r.core);
            if (popped.size() == before)
                co_await sim::sleep(2_us);
        }
    };
    sim::spawn(r.s, accelSend());
    sim::spawn(r.s, snicDrain());
    r.s.run();

    ASSERT_EQ(popped.size(), msgs.size());
    for (std::size_t i = 0; i < msgs.size(); ++i) {
        EXPECT_EQ(popped[i].payload, msgs[i]) << "message " << i;
        EXPECT_EQ(popped[i].tag, i);
    }
    const sim::Histogram &sizes = gio.stats().histogram("batch.send_size");
    EXPECT_GT(sizes.count(), 0u);
    EXPECT_EQ(sizes.sum(), static_cast<double>(msgs.size()));
}

/** tryRecvBatch never parks: empty ring means an empty result after
 *  one poll, and staged surplus comes back without re-polling. */
TEST(GpuBatching, TryRecvBatchIsNonBlocking)
{
    Rig r;
    SnicMqueueConfig cfg;
    cfg.maxBatch = 4;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, cfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);

    std::vector<std::vector<std::uint8_t>> msgs(
        4, std::vector<std::uint8_t>(32, 0xab));
    auto run = [&]() -> sim::Task {
        // Nothing ready: returns empty, does not park.
        std::vector<GioMessage> none;
        co_await gio.tryRecvBatch(4, none);
        EXPECT_TRUE(none.empty());
        std::vector<SnicMqueue::RxItem> items;
        for (std::size_t j = 0; j < msgs.size(); ++j)
            items.push_back(
                {msgs[j], static_cast<std::uint32_t>(j), 0});
        co_await mq.rxPushBatch(r.core, items);
        co_await sim::sleep(20_us);
        // 4 ready, capped at 2; the surplus stays staged...
        std::vector<GioMessage> first;
        co_await gio.tryRecvBatch(2, first);
        EXPECT_EQ(first.size(), 2u);
        // ...and is handed out by the next call.
        std::vector<GioMessage> rest;
        co_await gio.tryRecvBatch(4, rest);
        EXPECT_EQ(rest.size(), 2u);
        EXPECT_EQ(first[0].tag, 0u);
        EXPECT_EQ(rest[1].tag, 3u);
    };
    sim::spawn(r.s, run());
    r.s.run();
}

/*
 * ----- Vector-scale tail regression -----
 */

/** A 1417-byte payload (354 u32 elements + 1 trailing byte) must
 *  come back with every element scaled AND the trailing byte carried
 *  through unchanged — it used to be zeroed. */
TEST(GpuBatching, VectorScaleCarriesNonMultipleOf4TailUnchanged)
{
    Rig r(2048); // roomy slots: the payload is 1417 bytes
    sim::Simulator &s = r.s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    SnicMqueue mq(s, "mq", r.qp, r.layout, MqueueKind::Server, {});
    AccelQueue gio(s, "gio", r.mem, r.layout);
    sim::spawn(s, apps::runVectorScaleBlock(gpu, gio, 3, 0));

    std::vector<std::uint8_t> payload(1417);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);

    std::vector<std::uint8_t> reply;
    auto run = [&]() -> sim::Task {
        while (!co_await mq.rxPush(r.core, payload, 1))
            co_await sim::sleep(2_us);
        std::vector<core::TxMessage> popped;
        while (popped.empty()) {
            co_await mq.pollTxBatch(r.core, 1, popped);
            if (popped.empty())
                co_await sim::sleep(2_us);
        }
        reply = std::move(popped[0].payload);
        co_await mq.commitTxCons(r.core);
    };
    sim::spawn(s, run());
    s.runUntil(10_ms);

    ASSERT_EQ(reply.size(), payload.size());
    for (std::size_t i = 0; i + 3 < payload.size(); i += 4) {
        std::uint32_t v = static_cast<std::uint32_t>(payload[i]) |
                          (static_cast<std::uint32_t>(payload[i + 1])
                           << 8) |
                          (static_cast<std::uint32_t>(payload[i + 2])
                           << 16) |
                          (static_cast<std::uint32_t>(payload[i + 3])
                           << 24);
        v *= 3;
        EXPECT_EQ(reply[i], static_cast<std::uint8_t>(v));
        EXPECT_EQ(reply[i + 3], static_cast<std::uint8_t>(v >> 24));
    }
    EXPECT_EQ(reply[1416], payload[1416]); // the tail byte survives
}

/*
 * ----- Golden seed equivalence + batched service e2e -----
 */

namespace {

/** Five sequential LeNet requests through the full Lynx-on-host
 *  runtime; returns the client-side completion timestamps and
 *  digits. */
void
runSerialLenet(const apps::LenetServiceConfig &lcfg,
               std::vector<sim::Tick> &stamps,
               std::vector<int> &digits)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores,
                                                      server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model, lcfg));
    rt.start();

    net::Endpoint &ep = client.bind(net::Protocol::Udp, 30000);
    auto clientTask = [&]() -> sim::Task {
        for (int i = 0; i < 5; ++i) {
            net::Message m;
            m.src = {client.node(), 30000};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = workload::synthMnist(
                i % 10, static_cast<std::uint64_t>(i));
            co_await client.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            digits.push_back(r.payload.empty() ? -1 : r.payload[0]);
            stamps.push_back(s.now());
        }
    };
    sim::spawn(s, clientTask());
    s.runUntil(10_ms);
}

const std::vector<sim::Tick> kSeedLenetStamps{296027, 592054, 888081,
                                              1184108, 1480135};
const std::vector<int> kSeedLenetDigits{3, 4, 4, 8, 4};

} // namespace

/** Golden guard: with batching at its defaults the seed LeNet
 *  timestamps (captured before this extension landed) reproduce
 *  bit-exactly. Any timing drift in the default paths fails here. */
TEST(GpuBatching, DefaultsReproduceSeedLenetTimestampsExactly)
{
    std::vector<sim::Tick> stamps;
    std::vector<int> digits;
    runSerialLenet({}, stamps, digits);
    EXPECT_EQ(stamps, kSeedLenetStamps);
    EXPECT_EQ(digits, kSeedLenetDigits);
}

/** The lone-request fast path: batching ON under serial load serves
 *  each request immediately (no linger) and — because recvBatch,
 *  batchedLaunch(n=1) and sendBatch(1) are tick-exact with their
 *  unbatched counterparts — reproduces the seed timestamps exactly. */
TEST(GpuBatching, BatchingOnServesLoneRequestsAtSeedTimestamps)
{
    apps::LenetServiceConfig lcfg;
    lcfg.maxBatch = 8;
    lcfg.batchLinger = 100_us;
    std::vector<sim::Tick> stamps;
    std::vector<int> digits;
    runSerialLenet(lcfg, stamps, digits);
    EXPECT_EQ(stamps, kSeedLenetStamps);
    EXPECT_EQ(digits, kSeedLenetDigits);
}

/** Batched LeNet service end to end: concurrent clients, responses
 *  verified byte-for-byte against the model, real batches formed. */
TEST(GpuBatching, BatchedLenetServiceAnswersByteForByte)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &clientNic = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores,
                                                      server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    apps::LenetServiceConfig lcfg;
    lcfg.maxBatch = 8;
    lcfg.batchLinger = 20_us;
    sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model, lcfg));
    rt.start();

    constexpr int kClients = 10;
    constexpr int kPerClient = 8;
    int done = 0;
    auto clientTask = [&](int c) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(41000 + c);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int i = 0; i < kPerClient; ++i) {
            std::uint64_t v = static_cast<std::uint64_t>(c * 100 + i);
            auto img = workload::synthMnist((c + i) % 10, v);
            int expected = model.classify(img);
            net::Message m;
            m.src = {clientNic.node(), port};
            m.dst = {server.id(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = img;
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            EXPECT_EQ(r.payload.empty() ? -1 : r.payload[0], expected)
                << "client " << c << " request " << i;
            ++done;
        }
    };
    for (int c = 0; c < kClients; ++c)
        sim::spawn(s, clientTask(c));
    s.runUntil(200_ms);

    EXPECT_EQ(done, kClients * kPerClient);
    // Real batches formed: more messages than sweeps, and the GPU saw
    // multi-item launches.
    const sim::Histogram &sizes =
        queues[0]->stats().histogram("batch.recv_size");
    std::uint64_t recvs = sizes.count();
    auto msgs = static_cast<std::uint64_t>(sizes.sum());
    EXPECT_GT(recvs, 0u);
    EXPECT_GT(msgs, recvs);
    EXPECT_GT(gpu.stats().counterValue("batched_items"),
              gpu.stats().counterValue("device_launches"));
}

/** A malformed request inside a batch is answered per-message with
 *  err=1 / 0xff while its batchmates classify normally. */
TEST(GpuBatching, MalformedRequestInsideBatchAnsweredIndividually)
{
    Rig r(2048); // 784-byte images need more than 256-byte slots
    sim::Simulator &s = r.s;
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);
    apps::LeNet model;
    SnicMqueueConfig mcfg;
    mcfg.maxBatch = 4;
    SnicMqueue mq(s, "mq", r.qp, r.layout, MqueueKind::Server, mcfg);
    AccelQueue gio(s, "gio", r.mem, r.layout);
    apps::LenetServiceConfig lcfg;
    lcfg.maxBatch = 4;
    sim::spawn(s, apps::runLenetServer(gpu, gio, model, lcfg));

    auto good0 = workload::synthMnist(7, 1);
    std::vector<std::uint8_t> bad(100, 0x5a); // not 784 bytes
    auto good1 = workload::synthMnist(2, 2);

    std::vector<core::TxMessage> replies;
    auto run = [&]() -> sim::Task {
        std::vector<SnicMqueue::RxItem> items;
        items.push_back({good0, 10, 0});
        items.push_back({bad, 11, 0});
        items.push_back({good1, 12, 0});
        co_await mq.rxPushBatch(r.core, items);
        while (replies.size() < 3) {
            std::size_t before = replies.size();
            co_await mq.pollTxBatch(r.core, 8, replies);
            co_await mq.commitTxCons(r.core);
            if (replies.size() == before)
                co_await sim::sleep(5_us);
        }
    };
    sim::spawn(s, run());
    s.runUntil(50_ms);

    ASSERT_EQ(replies.size(), 3u);
    EXPECT_EQ(replies[0].tag, 10u);
    EXPECT_EQ(replies[0].err, 0u);
    EXPECT_EQ(replies[0].payload[0], model.classify(good0));
    EXPECT_EQ(replies[1].tag, 11u);
    EXPECT_EQ(replies[1].err, 1u);
    EXPECT_EQ(replies[1].payload[0], 0xff);
    EXPECT_EQ(replies[2].tag, 12u);
    EXPECT_EQ(replies[2].err, 0u);
    EXPECT_EQ(replies[2].payload[0], model.classify(good1));
}

/*
 * ----- Batched face verification -----
 */

namespace {

/** Run the two-tier face-verification world and return the response
 *  byte of every (client, request) cell. */
std::vector<std::uint8_t>
runFaceVer(apps::ServiceBatchConfig batch, std::uint64_t *batchRecvs)
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    net::Nic &clientNic = network.addNic("client");
    host::Node dbHost(s, network, "db-host");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    apps::KvStore db;
    for (std::uint32_t person = 0; person < 8; ++person)
        db.set(workload::faceLabel(person),
               workload::synthFace(person, 0));
    apps::KvServerConfig kvCfg;
    kvCfg.nic = &dbHost.nic();
    kvCfg.proto = net::Protocol::Tcp;
    kvCfg.stack = calibration::vmaXeon();
    kvCfg.cores = {&dbHost.cores()[0]};
    kvCfg.opCost = calibration::memcachedOpCostXeon;
    apps::KvServer kvServer(s, db, kvCfg);
    kvServer.start();

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "facever";
    scfg.port = 7100;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    auto serverQs = rt.makeAccelQueues(svc, accel);
    auto dbRef = rt.addClientQueue(accel, "db.cq",
                                   {dbHost.id(), kvCfg.port},
                                   net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(dbRef);
    sim::spawn(s, apps::runFaceVerWorker(gpu, *serverQs[0], *dbQ,
                                         batch));
    rt.start();

    constexpr int kClients = 4;
    constexpr int kPerClient = 6;
    std::vector<std::uint8_t> answers(
        static_cast<std::size_t>(kClients * kPerClient), 0xee);
    auto clientTask = [&](int c) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(42000 + c);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int i = 0; i < kPerClient; ++i) {
            std::uint32_t claim =
                static_cast<std::uint32_t>((c + i) % 8);
            bool genuine = i % 3 != 2;
            std::uint32_t probe = genuine ? claim : (claim + 3) % 8;
            std::string label = (i == 4)
                                    ? std::string("nobody-here!")
                                    : workload::faceLabel(claim);
            auto img = workload::synthFace(
                probe, 1 + static_cast<std::uint64_t>(i));
            net::Message m;
            m.src = {clientNic.node(), port};
            m.dst = {bf.node(), 7100};
            m.proto = net::Protocol::Udp;
            m.payload.assign(label.begin(), label.end());
            m.payload.insert(m.payload.end(), img.begin(), img.end());
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            answers[static_cast<std::size_t>(c * kPerClient + i)] =
                r.payload.empty() ? 0xee : r.payload[0];
        }
    };
    for (int c = 0; c < kClients; ++c)
        sim::spawn(s, clientTask(c));
    s.runUntil(300_ms);

    if (batchRecvs)
        *batchRecvs =
            serverQs[0]->stats().histogram("batch.recv_size").count();
    return answers;
}

} // namespace

/** The batched worker (batched GETs via dbQ sendBatch, one batched
 *  LBP kernel, batched replies) answers every request with exactly
 *  the bytes the unbatched worker produces. */
TEST(GpuBatching, BatchedFaceVerMatchesUnbatchedByteForByte)
{
    std::vector<std::uint8_t> unbatched = runFaceVer({}, nullptr);
    std::uint64_t recvs = 0;
    apps::ServiceBatchConfig bcfg;
    bcfg.maxBatch = 4;
    bcfg.linger = 20_us;
    std::vector<std::uint8_t> batched = runFaceVer(bcfg, &recvs);
    EXPECT_EQ(batched, unbatched);
    EXPECT_GT(recvs, 0u);
    // Every outcome class must actually occur in the pattern.
    auto count = [&](apps::FaceVerResult v) {
        return std::count(batched.begin(), batched.end(),
                          static_cast<std::uint8_t>(v));
    };
    EXPECT_GT(count(apps::FaceVerResult::Match), 0);
    EXPECT_GT(count(apps::FaceVerResult::NoMatch), 0);
    EXPECT_GT(count(apps::FaceVerResult::UnknownLabel), 0);
}

/*
 * ----- Face verification golden -----
 */

namespace {

/** Label the golden backend never answers (a lost memcached GET). */
const std::string kBlackHoleLabel = "black-hole!!";

/**
 * Six sequential face-verification requests through the default
 * Lynx-on-Bluefield runtime and the default (unbatched) worker: a
 * match, an impostor, a malformed request, an unknown label, a GET
 * the backend never answers (the client mqueue's 50 ms timeout
 * surfaces as a BackendError reply) and a match after the timeout.
 * The backend is a memcached stand-in that drops every GET for
 * kBlackHoleLabel. Returns completion timestamps and answer bytes.
 */
void
runSerialFaceVer(std::vector<sim::Tick> &stamps,
                 std::vector<std::uint8_t> &answers)
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    net::Nic &clientNic = network.addNic("client");
    host::Node dbHost(s, network, "db-host");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    apps::KvStore db;
    for (std::uint32_t person = 0; person < 4; ++person)
        db.set(workload::faceLabel(person),
               workload::synthFace(person, 0));
    net::Endpoint &dbEp = dbHost.nic().bind(net::Protocol::Tcp, 11211);
    auto backend = [&]() -> sim::Task {
        for (;;) {
            net::Message m = co_await dbEp.recv();
            auto req = apps::kvDecodeRequest(m.payload);
            if (!req || req->key == kBlackHoleLabel)
                continue;
            co_await sim::sleep(calibration::memcachedOpCostXeon);
            net::Message resp;
            resp.src = {dbHost.id(), 11211};
            resp.dst = m.src;
            resp.proto = net::Protocol::Tcp;
            resp.payload = apps::kvApply(db, *req);
            co_await dbHost.nic().send(std::move(resp));
        }
    };
    sim::spawn(s, backend());

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "facever";
    scfg.port = 7100;
    auto &svc = rt.addService(scfg);
    auto serverQs = rt.makeAccelQueues(svc, accel);
    auto dbRef = rt.addClientQueue(accel, "db.cq", {dbHost.id(), 11211},
                                   net::Protocol::Tcp);
    auto dbQ = rt.makeAccelQueue(dbRef);
    sim::spawn(s, apps::runFaceVerWorker(gpu, *serverQs[0], *dbQ));
    rt.start();

    net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, 42000);
    auto request = [](const std::string &label, std::uint32_t person) {
        std::vector<std::uint8_t> p(label.begin(), label.end());
        auto img = workload::synthFace(person, 1);
        p.insert(p.end(), img.begin(), img.end());
        return p;
    };
    std::vector<std::vector<std::uint8_t>> requests{
        request(workload::faceLabel(0), 0), // match
        request(workload::faceLabel(1), 3), // impostor
        std::vector<std::uint8_t>(100, 7),  // malformed
        request("nobody-here!", 2),         // unknown label
        request(kBlackHoleLabel, 1),        // backend timeout
        request(workload::faceLabel(2), 2), // match after it
    };
    auto clientTask = [&]() -> sim::Task {
        for (const auto &payload : requests) {
            net::Message m;
            m.src = {clientNic.node(), 42000};
            m.dst = {bf.node(), 7100};
            m.proto = net::Protocol::Udp;
            m.payload = payload;
            co_await clientNic.send(std::move(m));
            net::Message r = co_await ep.recv();
            EXPECT_EQ(r.payload.size(), 1u);
            answers.push_back(r.payload.empty() ? 0xee : r.payload[0]);
            stamps.push_back(s.now());
        }
    };
    sim::spawn(s, clientTask());
    s.runUntil(200_ms);
}

} // namespace

/** Golden guard for the default face-verification worker: completion
 *  timestamps of every outcome class, including the malformed reply
 *  and the backend-timeout error reply, reproduce bit-exactly. */
TEST(GpuBatching, DefaultsReproduceSeedFaceVerTimestampsExactly)
{
    std::vector<sim::Tick> stamps;
    std::vector<std::uint8_t> answers;
    runSerialFaceVer(stamps, answers);
    const std::vector<sim::Tick> seedStamps{209739,   419478,   437213,
                                            630763,   50670739, 50880478};
    const std::vector<std::uint8_t> seedAnswers{1, 0, 3, 2, 4, 1};
    EXPECT_EQ(stamps, seedStamps);
    EXPECT_EQ(answers, seedAnswers);
}
