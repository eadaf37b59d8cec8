/**
 * @file
 * Chaos tier: tenant churn composed with fault-plan packet loss and
 * DCQCN congestion under incast. Each seed runs a fully virtualized
 * dispatch plane (WRR classes + quotas + admission caps) while two
 * tenants are retired mid-run, one tenant appears mid-run, and the
 * fabric drops/marks packets with the software RDMA retry budget
 * live. Every response is byte- and tenant-validated, so a single
 * cross-tenant delivery — e.g. a failover requeue handing tenant A's
 * response to tenant B, or a retired generation's response escaping
 * the forwarder's staleness check — fails the run. Per-tenant
 * accounting must balance exactly: admitted = delivered + stale +
 * lost + still-in-flight, per tenant, per seed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "lynx/tenant.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "snic/bluefield.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::TenantId;

namespace {

constexpr double kBottleneckGbps = 0.5;
constexpr std::size_t kPayloadBytes = 1024;
constexpr sim::Tick kWarmup = 5_ms;
constexpr sim::Tick kWindow = 25_ms;
constexpr double kSaturationRps = 61'000.0;

/** Tenants retired mid-run (they keep transmitting afterwards). */
constexpr TenantId kRetiredA = 4;
constexpr TenantId kRetiredB = 5;
/** Tenant whose first packet appears mid-run (auto-registration
 *  under churn). */
constexpr TenantId kLate = 6;
constexpr sim::Tick kRetireAt = 18_ms;
constexpr sim::Tick kLateStart = 12_ms;

/** Payload keyed by (tenant, seq): any cross-tenant or cross-request
 *  delivery mismatches every byte. */
std::vector<std::uint8_t>
payloadFor(TenantId tenant, std::uint64_t seq)
{
    std::vector<std::uint8_t> p(kPayloadBytes);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 193 + b * 29 +
                                         tenant * 7919 + 11);
    return p;
}

net::CongestionConfig
dcqcnConfig()
{
    net::CongestionConfig cc;
    cc.enabled = true;
    cc.egressQueueBytes = 128 * 1024;
    cc.ecnKminBytes = 4 * 1024;
    cc.ecnKmaxBytes = 16 * 1024;
    cc.ecnEnabled = true;
    cc.dcqcnEnabled = true;
    cc.dcqcn.lineRateGbps = kBottleneckGbps;
    cc.dcqcn.minRateGbps = kBottleneckGbps / 50;
    cc.dcqcn.aiGbps = kBottleneckGbps / 100;
    cc.dcqcn.haiGbps = kBottleneckGbps / 20;
    cc.dcqcn.alphaTimer = 275_us;
    cc.dcqcn.rateTimer = 500_us;
    cc.pfc.enabled = true;
    return cc;
}

workload::LoadGenConfig
tenantGen(net::Nic &nic, std::uint32_t node, TenantId tenant,
          std::uint64_t seed)
{
    workload::LoadGenConfig lg;
    lg.nic = &nic;
    lg.target = {node, 7000};
    lg.warmup = kWarmup;
    lg.duration = kWindow;
    lg.tenant = tenant;
    lg.seed = seed * 100 + tenant;
    lg.makeRequest = [tenant](std::uint64_t seq, sim::Rng &) {
        return payloadFor(tenant, seq);
    };
    lg.validate = [tenant](const net::Message &resp) {
        return resp.tenant == tenant &&
               resp.payload == payloadFor(tenant, resp.seq);
    };
    return lg;
}

struct TenantAccount
{
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t stale = 0;
    std::uint64_t lost = 0;
    std::uint64_t delivered = 0;
    std::uint32_t inFlight = 0;
};

struct ChaosResult
{
    std::uint64_t victimCompleted = 0;
    std::uint64_t failures = 0; // summed over every generator
    std::uint64_t ecnMarked = 0;
    std::uint64_t faultDrops = 0;
    std::uint64_t lateCompleted = 0;
    std::vector<TenantAccount> tenants; // index = tenant id
};

/** One churny, lossy, congested multi-tenant run. */
ChaosResult
runChaos(std::uint64_t seed, double dropRate)
{
    sim::Simulator s;

    net::NetworkConfig ncfg;
    ncfg.congestion = dcqcnConfig();
    ncfg.congestion.ecnSeed = 0xecb1 + seed;
    net::Network nw(s, ncfg);

    snic::BluefieldConfig bfc;
    bfc.nic.gbps = kBottleneckGbps;
    snic::Bluefield bf(s, nw, "bf0", bfc);
    host::Node remoteHost(s, nw, "server1");
    accel::Gpu gpu(s, "gpu0", remoteHost.fabric());

    sim::FaultConfig fc;
    fc.dropRate = dropRate;
    fc.seed = seed;
    sim::FaultPlan plan(fc);
    nw.setFaultPlan(&plan);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.retry = calibration::rdmaSwRetryPolicy(); // failover
    cfg.tenancy.autoRegister = true;
    cfg.tenancy.defaults.weight = 1;
    cfg.tenancy.defaults.maxInFlight = 64;
    cfg.tenancy.defaults.mqueueQuota = 16;
    core::Runtime rt(s, cfg);

    rdma::RdmaPathModel lp;
    auto &accel = rt.addAccelerator(
        "gpu0", gpu.memory(),
        lp.viaNetwork(calibration::rdmaRemoteExtraOneWay));
    rdma::QpFaultBinding fb;
    fb.plan = &plan;
    fb.initiator = bf.node();
    fb.target = remoteHost.id();
    accel.qp().bindFaults(fb);

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

    // Tenant 1: the closed-loop victim. Tenants 2..5: open-loop
    // aggressors (4 and 5 get retired mid-run but keep sending).
    auto &victimNic = nw.addNic("victim");
    workload::LoadGenConfig vcfg =
        tenantGen(victimNic, bf.node(), 1, seed);
    vcfg.concurrency = 4;
    vcfg.requestTimeout = 5_ms;
    vcfg.thinkTime = 1_ms;
    workload::LoadGen victim(s, vcfg);

    std::vector<std::unique_ptr<workload::LoadGen>> agg;
    for (TenantId t = 2; t <= kRetiredB; ++t) {
        auto &nic = nw.addNic("agg" + std::to_string(t));
        workload::LoadGenConfig lg = tenantGen(nic, bf.node(), t, seed);
        lg.openRate = 1.5 * kSaturationRps / 4;
        agg.push_back(std::make_unique<workload::LoadGen>(s, lg));
    }

    // Tenant 6 appears mid-run: first packet at kLateStart
    // auto-registers a fresh VF while the plane is under churn.
    auto &lateNic = nw.addNic("late");
    workload::LoadGenConfig lcfg =
        tenantGen(lateNic, bf.node(), kLate, seed);
    lcfg.concurrency = 2;
    lcfg.requestTimeout = 5_ms;
    lcfg.warmup = kLateStart;
    lcfg.duration = kWarmup + kWindow - kLateStart;

    workload::LoadGen late(s, lcfg);

    for (auto &g : agg)
        g->start();
    victim.start();

    auto churn = [&]() -> sim::Task {
        co_await sim::sleep(kLateStart);
        late.start();
        co_await sim::sleep(kRetireAt - kLateStart);
        rt.tenants().retire(kRetiredA);
        rt.tenants().retire(kRetiredB);
    };
    sim::spawn(s, churn());

    s.runUntil(victim.windowEnd() + 10_ms);

    ChaosResult out;
    out.victimCompleted = victim.completed();
    out.lateCompleted = late.completed();
    out.failures = victim.validationFailures() + late.validationFailures();
    for (auto &g : agg)
        out.failures += g->validationFailures();
    out.ecnMarked = nw.ecnStats().counterValue("marked");
    out.faultDrops = nw.stats().counterValue("dropped_by_fault");

    core::TenantTable &table = rt.tenants();
    out.tenants.resize(table.idSpan());
    for (TenantId id = 1; id < table.idSpan(); ++id) {
        sim::StatSet &st = table.statsOf(id);
        TenantAccount &a = out.tenants[id];
        a.admitted = st.counterValue("admitted");
        a.rejected = st.counterValue("rejected");
        a.stale = st.counterValue("stale_dropped");
        a.lost = st.counterValue("lost");
        a.delivered = st.histogram("latency").count();
        a.inFlight = table.inFlight(id);
    }
    return out;
}

} // namespace

/** 12 seeds of churn x loss x DCQCN x incast: the virtualized plane
 *  must keep making byte-exact progress, never mix tenants, balance
 *  every tenant's ledger exactly, and drain retired tenants without
 *  delivering a single stale response. */
TEST(TenantChaos, ChurnUnderLossAndCongestionStaysIsolated)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        // 1-5% loss: retries constantly live, closed loops survive.
        double dropRate = 0.01 + 0.0033 * static_cast<double>(seed);
        ChaosResult r = runChaos(seed, dropRate);
        SCOPED_TRACE("seed " + std::to_string(seed));

        // Progress under the bullying, and the chaos was real.
        EXPECT_GE(r.victimCompleted, 10u);
        EXPECT_GT(r.lateCompleted, 0u); // mid-run tenant got service
        EXPECT_GT(r.ecnMarked, 0u);     // marking was sustained
        EXPECT_GT(r.faultDrops, 0u);    // loss was live

        // Isolation: zero cross-tenant or stale deliveries anywhere
        // (payloads are keyed by tenant and seq).
        EXPECT_EQ(r.failures, 0u);

        // Per-tenant conservation: every admission is accounted as
        // exactly one of delivered / stale-dropped / lost / still
        // in flight — across failover requeues, evacuations and
        // retirement drains. A leak or double-release breaks this.
        ASSERT_EQ(r.tenants.size(), static_cast<std::size_t>(kLate) + 1);
        for (TenantId id = 1; id < r.tenants.size(); ++id) {
            const TenantAccount &a = r.tenants[id];
            SCOPED_TRACE("tenant " + std::to_string(id));
            EXPECT_EQ(a.admitted,
                      a.delivered + a.stale + a.lost + a.inFlight);
            EXPECT_GT(a.admitted, 0u);
        }

        // Retired tenants: rejected arrivals were counted after
        // retirement (they kept transmitting), and their in-flight
        // work drained — the VF never wedges holding slots.
        for (TenantId id : {kRetiredA, kRetiredB}) {
            const TenantAccount &a = r.tenants[id];
            SCOPED_TRACE("retired tenant " + std::to_string(id));
            EXPECT_GT(a.rejected, 0u);
            EXPECT_EQ(a.inFlight, 0u);
        }

        // The victim was never retired, so the staleness machinery
        // must never have eaten one of its responses.
        EXPECT_EQ(r.tenants[1].stale, 0u);
    }
}
