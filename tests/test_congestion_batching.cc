/**
 * @file
 * Interaction regression: doorbell coalescing (dispatcher staging +
 * mqueue batched RDMA writes, PR "tab_batching"/"tab_gpu_batching"
 * machinery) composed with the congestion plane. Batching trades a
 * bounded linger for fewer RDMA ops; under ECN marking and DCQCN
 * pacing that trade must stay bounded — coalescing may never inflate
 * the incast victim's p99 beyond a small envelope over the unbatched
 * run, and must never corrupt. Measured numbers are recorded in
 * EXPERIMENTS.md (congestion x batching).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "sim/simulator.hh"
#include "snic/bluefield.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

constexpr double kBottleneckGbps = 0.5;
constexpr std::size_t kPayloadBytes = 1024;

std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(kPayloadBytes);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 181 + b * 23 + 3);
    return p;
}

struct VictimResult
{
    double p50us = 0;
    double p99us = 0;
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;
    std::uint64_t ecnMarked = 0;
};

/** An 8-to-1 incast at 1.5x saturation with DCQCN on, with or
 *  without the doorbell-coalescing knobs (mqueue maxBatch 8, which
 *  the dispatcher also stages to, + the default 2 us flush linger). */
VictimResult
measure(bool batched)
{
    sim::Simulator s;

    net::NetworkConfig ncfg;
    ncfg.congestion.enabled = true;
    ncfg.congestion.egressQueueBytes = 128 * 1024;
    ncfg.congestion.ecnKminBytes = 4 * 1024;
    ncfg.congestion.ecnKmaxBytes = 16 * 1024;
    ncfg.congestion.ecnEnabled = true;
    ncfg.congestion.dcqcnEnabled = true;
    ncfg.congestion.dcqcn.lineRateGbps = kBottleneckGbps;
    ncfg.congestion.dcqcn.minRateGbps = kBottleneckGbps / 50;
    ncfg.congestion.dcqcn.aiGbps = kBottleneckGbps / 100;
    ncfg.congestion.dcqcn.haiGbps = kBottleneckGbps / 20;
    ncfg.congestion.dcqcn.alphaTimer = 275_us;
    ncfg.congestion.dcqcn.rateTimer = 500_us;
    ncfg.congestion.pfc.enabled = true;
    net::Network nw(s, ncfg);

    snic::BluefieldConfig bfc;
    bfc.nic.gbps = kBottleneckGbps;
    snic::Bluefield bf(s, nw, "bf0", bfc);

    pcie::Fabric fabric(s, "server0.pcie");
    accel::Gpu gpu(s, "gpu0", fabric);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    if (batched) {
        cfg.mq.maxBatch = 8;
    }
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu0", gpu.memory(), {});

    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (auto &q : rt.makeAccelQueues(svc, accel)) {
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 2_us));
        queues.push_back(std::move(q));
    }
    rt.start();

    constexpr sim::Tick kWarmup = 10_ms;
    constexpr sim::Tick kWindow = 40_ms;
    constexpr double kSaturationRps = 61'000.0;

    std::vector<std::unique_ptr<workload::LoadGen>> agg;
    for (int a = 0; a < 8; ++a) {
        auto &nic = nw.addNic("agg" + std::to_string(a));
        workload::LoadGenConfig lg;
        lg.nic = &nic;
        lg.target = {bf.node(), 7000};
        lg.openRate = 1.5 * kSaturationRps / 8;
        lg.warmup = kWarmup;
        lg.duration = kWindow;
        lg.makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(kPayloadBytes, 0x3c);
        };
        lg.seed = 300 + static_cast<std::uint64_t>(a);
        agg.push_back(std::make_unique<workload::LoadGen>(s, lg));
    }

    auto &victimNic = nw.addNic("victim");
    workload::LoadGenConfig lg;
    lg.nic = &victimNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 4;
    lg.warmup = kWarmup;
    lg.duration = kWindow;
    lg.requestTimeout = 5_ms;
    lg.thinkTime = 1_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    workload::LoadGen victim(s, lg);

    for (auto &g : agg)
        g->start();
    victim.start();
    s.runUntil(victim.windowEnd() + 10_ms);

    VictimResult out;
    out.p50us = sim::toMicroseconds(victim.latency().percentile(50));
    out.p99us = sim::toMicroseconds(victim.latency().percentile(99));
    out.completed = victim.completed();
    out.timeouts = victim.timeouts();
    out.failures = victim.validationFailures();
    out.ecnMarked = nw.ecnStats().counterValue("marked");
    return out;
}

} // namespace

/** Coalescing under sustained ECN marking: the batched run's victim
 *  p99 must stay inside a 1.5x + 250 us envelope of the unbatched
 *  run (the linger bound is 2 us; anything beyond the envelope means
 *  batching is amplifying congestion), with byte-exact responses and
 *  no extra drops. */
TEST(CongestionBatching, CoalescingKeepsVictimTailInEnvelope)
{
    VictimResult plain = measure(/*batched=*/false);
    VictimResult batched = measure(/*batched=*/true);

    // Both runs must be genuinely congested and both victims served.
    EXPECT_GT(plain.ecnMarked, 0u);
    EXPECT_GT(batched.ecnMarked, 0u);
    EXPECT_GE(plain.completed, 50u);
    EXPECT_GE(batched.completed, 50u);
    EXPECT_EQ(plain.failures, 0u);
    EXPECT_EQ(batched.failures, 0u);

    double envelope = 1.5 * plain.p99us + 250.0;
    EXPECT_LE(batched.p99us, envelope)
        << "batched p99 " << batched.p99us << "us vs unbatched "
        << plain.p99us << "us";

    // Recorded in EXPERIMENTS.md (congestion x batching).
    ::testing::Test::RecordProperty("unbatched_p99us", plain.p99us);
    ::testing::Test::RecordProperty("batched_p99us", batched.p99us);
    std::printf("[congestion x batching] unbatched p50/p99 = "
                "%.1f/%.1f us, batched p50/p99 = %.1f/%.1f us, "
                "timeouts %llu -> %llu\n",
                plain.p50us, plain.p99us, batched.p50us,
                batched.p99us,
                static_cast<unsigned long long>(plain.timeouts),
                static_cast<unsigned long long>(batched.timeouts));
}
