/**
 * @file
 * Determinism goldens for the simulation engine.
 *
 * The scheduler's contract — events fire in (timestamp, scheduling
 * FIFO) order — is what makes every scenario replay bit-exactly. These
 * tests pin a fig8b-scale scale-out scenario (local + remote GPUs
 * behind one Bluefield, multiple concurrent clients) to the exact
 * completion timestamps the seed engine produced, with batching,
 * tracing and fault injection each both off and on. Any engine change
 * that moves a single event — however slightly — fails here.
 *
 * The golden values were captured from the pre-timing-wheel seed
 * engine (std::priority_queue calendar) and must never change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "apps/lenet.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

struct GoldenKnobs
{
    bool tracing = false;
    bool zeroFaultPlan = false;
    bool batching = false;

    /** Pass an explicit CongestionConfig with every sub-feature
     *  requested but the master switch OFF: the contract is that the
     *  master switch alone decides, and a disabled config is
     *  bit-identical to no config at all. */
    bool congestionOffExplicit = false;

    /** Full congestion plane ON (ECN + DCQCN + PFC at the default
     *  25 Gb/s thresholds) under the scenario's serial closed-loop
     *  load: nothing congests, but every message now crosses the
     *  egress-port queue model and the DCQCN pacer, which shifts
     *  timestamps deterministically — pinned to their own golden. */
    bool congestionOn = false;

    /** Pass a fully-populated TenantConfig (auto-registration,
     *  weights, caps, quotas) while every request carries tenant id
     *  0: the default VF's traffic is bit-identical to the seed,
     *  whatever the registration policy says. */
    bool tenancyDefaultVf = false;

    /** One registered tenant per client, generous quotas, under the
     *  serial closed-loop load: every request now takes the
     *  class-queue + WRR placement path — pinned to its own
     *  golden. */
    bool tenancyOn = false;

    /** Pass a populated RSS config plus a populated-but-disabled
     *  admission config while the policy stays RoundRobin: the
     *  contract is that carrying steering/admission configuration
     *  without engaging it is bit-identical to the seed. */
    bool steerAdmitOffExplicit = false;

    /** Admission control ON with a threshold the serial closed-loop
     *  load never reaches: the occupancy gate is pure arithmetic on
     *  the dispatch path (no suspension), so even *enabled* admission
     *  must not move a single timestamp while nothing sheds. */
    bool admissionOnSerial = false;
};

struct GoldenRun
{
    std::vector<sim::Tick> stamps; ///< completion times, arrival order
    sim::Tick end = 0;             ///< final simulated time
};

/**
 * Fig8b-scale scenario: one Bluefield SmartNIC fronting two local
 * K80s and one remote K80 (reached over the fabric), three closed-loop
 * clients issuing six LeNet classifications each.
 */
GoldenRun
runFig8bScale(const GoldenKnobs &knobs)
{
    sim::Simulator s;
    std::unique_ptr<sim::SpanCollector> spans;
    if (knobs.tracing)
        spans = std::make_unique<sim::SpanCollector>(s);

    net::NetworkConfig ncfg;
    if (knobs.congestionOffExplicit) {
        // Every sub-feature asked for, master switch left off: must
        // be indistinguishable from no config at all.
        ncfg.congestion.ecnEnabled = true;
        ncfg.congestion.dcqcnEnabled = true;
        ncfg.congestion.pfc.enabled = true;
    } else if (knobs.congestionOn) {
        ncfg.congestion.enabled = true;
        ncfg.congestion.ecnEnabled = true;
        ncfg.congestion.dcqcnEnabled = true;
        ncfg.congestion.pfc.enabled = true;
    }
    net::Network network(s, ncfg);
    sim::FaultPlan zeroPlan;
    if (knobs.zeroFaultPlan)
        network.setFaultPlan(&zeroPlan); // all-zero: must not move time

    snic::Bluefield bf(s, network, "bf0");
    net::Nic &clientNic = network.addNic("client");
    host::Node local(s, network, "server0");
    host::Node remoteHost(s, network, "server1");

    accel::GpuConfig k80;
    k80.blockSlots = 208;
    k80.clockScale = calibration::k80ClockScale;
    k80.memBytes = 4ull << 20;
    accel::Gpu gpu0(s, "k80-0", local.fabric(), k80);
    accel::Gpu gpu1(s, "k80-1", local.fabric(), k80);
    accel::Gpu gpu2(s, "k80-r", remoteHost.fabric(), k80);
    apps::LeNet model;

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    if (knobs.batching) {
        cfg.dispatchFlushLinger = 2_us;
        cfg.mq.maxBatch = 8;
    }
    if (knobs.tenancyDefaultVf || knobs.tenancyOn) {
        cfg.tenancy.autoRegister = true;
        cfg.tenancy.defaults.weight = 2;
        cfg.tenancy.defaults.maxInFlight = 64;
        cfg.tenancy.defaults.mqueueQuota = 32;
    }
    if (knobs.steerAdmitOffExplicit) {
        // Non-default table shape + admission knobs, master switch
        // off, policy untouched: must be invisible.
        cfg.rss.indirectionSize = 256;
        cfg.admission.enabled = false;
        cfg.admission.shedOccupancy = 0.5;
    }
    if (knobs.admissionOnSerial) {
        cfg.admission.enabled = true;
        cfg.admission.shedOccupancy = 0.99;
    }
    core::Runtime rt(s, cfg);
    rdma::RdmaPathModel lp;
    auto &h0 = rt.addAccelerator("g0", gpu0.memory(), lp);
    auto &h1 = rt.addAccelerator("g1", gpu1.memory(), lp);
    auto &h2 = rt.addAccelerator(
        "g2", gpu2.memory(),
        lp.viaNetwork(calibration::rdmaRemoteExtraOneWay));

    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    scfg.queuesPerAccel = 1;
    auto &svc = rt.addService(scfg);

    apps::LenetServiceConfig sb;
    if (knobs.batching) {
        sb.maxBatch = 4;
        sb.batchLinger = 2_us;
    }
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    accel::Gpu *gpus[] = {&gpu0, &gpu1, &gpu2};
    core::AccelHandle *handles[] = {&h0, &h1, &h2};
    for (int g = 0; g < 3; ++g) {
        auto qs = rt.makeAccelQueues(svc, *handles[g]);
        sim::spawn(s, apps::runLenetServer(*gpus[g], *qs[0], model, sb));
        for (auto &q : qs)
            queues.push_back(std::move(q));
    }
    rt.start();

    GoldenRun run;
    // Bursts of three back-to-back requests per round so that, with
    // the batching knobs on, concurrent arrivals actually coalesce
    // (a lone in-flight request never triggers batching).
    auto client = [&](int idx) -> sim::Task {
        std::uint16_t port = static_cast<std::uint16_t>(30000 + idx);
        net::Endpoint &ep = clientNic.bind(net::Protocol::Udp, port);
        for (int round = 0; round < 2; ++round) {
            for (int i = 0; i < 3; ++i) {
                net::Message m;
                m.src = {clientNic.node(), port};
                m.dst = {bf.node(), 7000};
                m.proto = net::Protocol::Udp;
                int n = idx * 6 + round * 3 + i;
                m.payload = workload::synthMnist(
                    n % 10, static_cast<std::uint64_t>(n));
                if (knobs.tenancyOn)
                    m.tenant = static_cast<std::uint16_t>(idx + 1);
                co_await clientNic.send(std::move(m));
            }
            for (int i = 0; i < 3; ++i) {
                net::Message r = co_await ep.recv();
                EXPECT_EQ(r.payload.size(), 1u);
                run.stamps.push_back(s.now());
            }
        }
    };
    for (int c = 0; c < 3; ++c)
        sim::spawn(s, client(c));
    s.runUntil(50_ms);

    run.end = s.now();
    EXPECT_EQ(run.stamps.size(), 18u);
    return run;
}

/** Captured from the seed engine; see file comment. */
const std::vector<sim::Tick> &
seedStamps()
{
    static const std::vector<sim::Tick> stamps{
        328590,  328746,  336902,  629549,  629705,  637861,
        930508,  930664,  952574,  1259254, 1259410, 1267566,
        1560213, 1560369, 1568525, 1861172, 1861328, 1869484};
    return stamps;
}

/** Captured from the seed engine with every batching knob on. */
const std::vector<sim::Tick> &
seedStampsBatched()
{
    static const std::vector<sim::Tick> stamps{
        433200,  438517,  441356,  450673,  534219,  539536,
        544853,  734159,  742315,  873443,  1035118, 1043274,
        1278061, 1283378, 1439736, 1445053, 1447892, 1457209};
    return stamps;
}

/**
 * Captured with the full congestion plane enabled (ECN + DCQCN + PFC
 * at the default 25 Gb/s thresholds) under the serial closed-loop
 * load. The shift vs seedStamps() is pure deterministic pacing /
 * egress-queue serialization — no randomness is consumed because the
 * queue never reaches the ECN marking threshold.
 */
const std::vector<sim::Tick> &
seedStampsCongestion()
{
    static const std::vector<sim::Tick> stamps{
        328840,  329090,  337340,  629799,  630049,  638299,
        930758,  931008,  953074,  1259848, 1260098, 1268348,
        1560807, 1561057, 1569307, 1861766, 1862016, 1870266};
    return stamps;
}

/**
 * Captured with the multi-tenant dispatch plane enabled (one tenant
 * per client, generous quotas) under the serial closed-loop load.
 * The class-queue + WRR placement hop is deterministic; any shift vs
 * seedStamps() is the fixed cost of the virtualized path, not
 * scheduling noise. As captured, the stamps are identical to the
 * seed: serial load never finds a ring full or a quota exceeded, so
 * the WRR hop places each message in the same tick it arrived.
 * A future divergence here means the virtualized fast path gained
 * a real delay — that is a finding, not noise.
 */
const std::vector<sim::Tick> &
seedStampsTenancy()
{
    static const std::vector<sim::Tick> stamps{
        328590,  328746,  336902,  629549,  629705,  637861,
        930508,  930664,  952574,  1259254, 1259410, 1267566,
        1560213, 1560369, 1568525, 1861172, 1861328, 1869484};
    return stamps;
}

void
printStamps(const char *tag, const GoldenRun &run)
{
    if (!std::getenv("LYNX_PRINT_GOLDEN"))
        return;
    std::cout << tag << " = {";
    for (std::size_t i = 0; i < run.stamps.size(); ++i)
        std::cout << (i ? ", " : "") << run.stamps[i];
    std::cout << "}\n";
}

TEST(EngineGolden, Fig8bScaleMatchesSeedTimestamps)
{
    GoldenRun run = runFig8bScale({});
    printStamps("base", run);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, TracingDoesNotMoveTimestamps)
{
    GoldenKnobs knobs;
    knobs.tracing = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, ZeroFaultPlanDoesNotMoveTimestamps)
{
    GoldenKnobs knobs;
    knobs.zeroFaultPlan = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, BatchingMatchesSeedBatchedTimestamps)
{
    GoldenKnobs knobs;
    knobs.batching = true;
    GoldenRun run = runFig8bScale(knobs);
    printStamps("batched", run);
    EXPECT_EQ(run.stamps, seedStampsBatched());
}

TEST(EngineGolden, DisabledCongestionConfigMatchesSeedTimestamps)
{
    GoldenKnobs knobs;
    knobs.congestionOffExplicit = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, CongestionOnSerialLoadMatchesCongestionGolden)
{
    GoldenKnobs knobs;
    knobs.congestionOn = true;
    GoldenRun run = runFig8bScale(knobs);
    printStamps("congestion", run);
    EXPECT_EQ(run.stamps, seedStampsCongestion());
}

TEST(EngineGolden, DisabledTenancyConfigMatchesSeedTimestamps)
{
    GoldenKnobs knobs;
    knobs.tenancyDefaultVf = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, TenancyOnSerialLoadMatchesTenancyGolden)
{
    GoldenKnobs knobs;
    knobs.tenancyOn = true;
    GoldenRun run = runFig8bScale(knobs);
    printStamps("tenancy", run);
    EXPECT_EQ(run.stamps, seedStampsTenancy());
}

TEST(EngineGolden, TenancyOnBatchingMatchesSeedBatchedTimestamps)
{
    // Serial load never parks, so a registered tenant's request
    // follows the default VF's timeline: staged and flushed with the
    // same coalesced RX writes.
    GoldenKnobs knobs;
    knobs.tenancyOn = true;
    knobs.batching = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStampsBatched());
}

TEST(EngineGolden, BatchingPlusTracingMatchesSeedBatchedTimestamps)
{
    GoldenKnobs knobs;
    knobs.batching = true;
    knobs.tracing = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStampsBatched());
}

TEST(EngineGolden, DisabledSteeringAdmissionConfigMatchesSeedTimestamps)
{
    GoldenKnobs knobs;
    knobs.steerAdmitOffExplicit = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

TEST(EngineGolden, AdmissionOnSerialLoadMatchesSeedTimestamps)
{
    // The occupancy gate never suspends: with the threshold out of
    // reach, enabled admission is arithmetic the timeline cannot see.
    GoldenKnobs knobs;
    knobs.admissionOnSerial = true;
    GoldenRun run = runFig8bScale(knobs);
    EXPECT_EQ(run.stamps, seedStamps());
}

} // namespace
