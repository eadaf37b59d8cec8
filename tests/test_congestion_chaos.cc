/**
 * @file
 * Chaos tier: DCQCN congestion control composed with fault-plan
 * packet loss under N-to-1 incast. 20 seeds of sustained ECN marking
 * + random fabric/RDMA drops must never wedge the pipeline: the
 * victim keeps completing byte-validated requests (the software RDMA
 * retry budget from the failover machinery converges instead of
 * livelocking behind paced, marked, lossy traffic).
 *
 * A second scenario combines every fabric fault at once on a
 * 4-machine echo cluster — drop, corrupt, delay, a partition window,
 * and ECN/DCQCN on narrow ports — and checks each machine's open-loop
 * ledger plus bit-exact same-seed replay over 10 seeds.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
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
        p[b] = static_cast<std::uint8_t>(seq * 193 + b * 29 + 11);
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

struct ChaosResult
{
    std::uint64_t completed = 0;
    std::uint64_t failures = 0;
    std::uint64_t ecnMarked = 0;
    std::uint64_t faultDrops = 0;
};

/** One lossy, congested incast run: a remote GPU behind a fault plan
 *  (RDMA retries live), 4 open-loop aggressors at 1.5x the ~61 Krps
 *  wire saturation, and one closed-loop byte-validating victim. */
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
    cfg.mq.retry = calibration::rdmaSwRetryPolicy(); // runs failover
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

    constexpr sim::Tick kWarmup = 5_ms;
    constexpr sim::Tick kWindow = 25_ms;
    constexpr double kSaturationRps = 61'000.0;

    std::vector<std::unique_ptr<workload::LoadGen>> agg;
    for (int a = 0; a < 4; ++a) {
        auto &nic = nw.addNic("agg" + std::to_string(a));
        workload::LoadGenConfig lg;
        lg.nic = &nic;
        lg.target = {bf.node(), 7000};
        lg.openRate = 1.5 * kSaturationRps / 4;
        lg.warmup = kWarmup;
        lg.duration = kWindow;
        lg.makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(kPayloadBytes, 0x5a);
        };
        lg.seed = seed * 100 + static_cast<std::uint64_t>(a);
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
    lg.seed = seed;
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

    ChaosResult out;
    out.completed = victim.completed();
    out.failures = victim.validationFailures();
    out.ecnMarked = nw.ecnStats().counterValue("marked");
    out.faultDrops = nw.stats().counterValue("dropped_by_fault");
    return out;
}

constexpr unsigned kMachines = 4;

/** Echo server: swap the addresses, send the message back. */
sim::Task
echoLoop(net::Nic &nic, net::Endpoint &ep)
{
    for (;;) {
        net::Message m = co_await ep.recv();
        net::Address from = m.src;
        m.src = m.dst;
        m.dst = from;
        co_await nic.send(std::move(m));
    }
}

struct ClusterResult
{
    std::string fingerprint;
    std::uint64_t partitionDrops = 0;
    std::uint64_t completed = 0;
    bool conserved = true;
};

/**
 * The 4-machine cluster: machine m holds a server NIC (node 2m, echo
 * on port 7000) and a client NIC (node 2m+1) driving an open-loop
 * generator whose logical clients ring-route across the *other*
 * machines, so every request and response crosses the fabric. The
 * fabric drops, corrupts and delays frames, partitions machine 0's
 * server for 4 ms mid-window, and runs ECN + DCQCN on 0.5 Gb/s ports.
 *
 * The fingerprint holds everything that must replay bit-exactly for a
 * seed: per-machine ledgers, exact latency extrema and percentiles,
 * the fault counters, the final clock and the registry JSON.
 */
ClusterResult
runCluster(std::uint64_t seed)
{
    sim::Simulator s;

    net::NetworkConfig ncfg;
    ncfg.congestion.enabled = true;
    ncfg.congestion.ecnEnabled = true;
    ncfg.congestion.dcqcnEnabled = true;
    // Shape the ports so a 256 B echo workload actually queues and
    // marks (the default band is sized for KB-scale flows).
    ncfg.congestion.portGbps = 0.5;
    ncfg.congestion.ecnKminBytes = 0;
    ncfg.congestion.ecnKmaxBytes = 2048;
    ncfg.congestion.ecnPmax = 0.5;
    net::Network net(s, ncfg);

    sim::FaultConfig fcfg;
    fcfg.dropRate = 0.005;
    fcfg.corruptRate = 0.005;
    fcfg.delayRate = 0.01;
    fcfg.delayMin = 5_us;
    fcfg.delayMax = 80_us;
    fcfg.seed = seed ^ 0xfau;
    sim::FaultPlan plan(fcfg);
    // Machine 0's server vanishes for 4 ms mid-window, so the lost,
    // late and expired paths all exercise.
    plan.partition(0, sim::FaultPlan::kAnyNode, 8_ms, 12_ms);
    net.setFaultPlan(&plan);

    std::vector<net::Nic *> servers(kMachines);
    std::vector<net::Nic *> clients(kMachines);
    for (unsigned m = 0; m < kMachines; ++m) {
        servers[m] = &net.addNic("srv" + std::to_string(m));
        clients[m] = &net.addNic("cli" + std::to_string(m));
        net::Endpoint &ep = servers[m]->bind(net::Protocol::Udp, 7000);
        sim::spawn(s, echoLoop(*servers[m], ep));
    }

    std::vector<std::unique_ptr<workload::LoadGen>> gens;
    for (unsigned m = 0; m < kMachines; ++m) {
        workload::LoadGenConfig lc;
        lc.nic = clients[m];
        lc.target = {2 * ((m + 1) % kMachines), 7000};
        lc.openRate = 15000.0;
        lc.warmup = 2_ms;
        lc.duration = 12_ms;
        lc.drain = 2_ms;
        lc.openPorts = 4;
        lc.logicalClients = 32;
        lc.requestTimeout = 8_ms;
        lc.makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(256, 0x5a);
        };
        // Ring routing: client c on machine m talks to one of the
        // other three machines, chosen by its id.
        lc.routeTarget = [m](std::uint64_t c) {
            return net::Address{
                2 * static_cast<std::uint32_t>((m + 1 + c % 3) %
                                               kMachines),
                7000};
        };
        lc.seed = seed * 100 + m;
        gens.push_back(std::make_unique<workload::LoadGen>(s, lc));
        gens.back()->start();
    }

    s.runUntil(gens[0]->windowEnd() + 8_ms + 1_ms);

    ClusterResult out;
    std::ostringstream os;
    for (unsigned m = 0; m < kMachines; ++m) {
        const workload::LoadGen &g = *gens[m];
        out.conserved = out.conserved && g.conservationHolds();
        out.completed += g.completed();
        os << "m" << m << " sent=" << g.sent()
           << " completed=" << g.completed()
           << " failed=" << g.windowValidationFailures()
           << " late=" << g.late() << " lost=" << g.lost()
           << " inflight=" << g.openInFlight()
           << " timeouts=" << g.timeouts()
           << " stale=" << g.staleResponses() << "\n";
        const sim::Histogram &h = g.latency();
        os << "m" << m << " lat count=" << h.count()
           << " min=" << h.min() << " max=" << h.max()
           << " sum=" << h.sum() << " p50=" << h.percentile(50)
           << " p99=" << h.percentile(99) << "\n";
    }
    plan.stats().dump(os, "fault.");
    os << "now=" << s.now() << "\n";
    s.metrics().json(os);
    out.fingerprint = os.str();
    out.partitionDrops = plan.stats().counterValue("partition_drops");
    return out;
}

} // namespace

/** 20 seeds of loss x DCQCN x incast: every run must keep making
 *  byte-exact progress under sustained marking — no wedge, no
 *  corruption, and the chaos must actually be happening (marks and
 *  fault drops both non-zero). */
TEST(CongestionChaos, LossUnderIncastConvergesAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        // 1-5% loss: enough to fire retries constantly, not enough
        // to starve a 5 ms-timeout closed loop outright.
        double dropRate = 0.01 + 0.002 * static_cast<double>(seed);
        ChaosResult r = runChaos(seed, dropRate);
        SCOPED_TRACE("seed " + std::to_string(seed));
        // ~40 victim requests fit the window at full health; even a
        // heavily bullied victim must land a real fraction of them.
        EXPECT_GE(r.completed, 10u);
        EXPECT_EQ(r.failures, 0u);
        EXPECT_GT(r.ecnMarked, 0u);  // marking was sustained
        EXPECT_GT(r.faultDrops, 0u); // loss was live
    }
}

// The cluster tests keep the Sharded* suite names of the parallel
// engine's tests that first ran this scenario; the simulator is now
// single-threaded, so they pin serial replay instead of thread
// invariance.

/** The replay check below would pass vacuously if nothing completed:
 *  every machine's generator must land requests despite the chaos. */
TEST(ShardedGolden, ClusterCompletesWork)
{
    ClusterResult r = runCluster(7);
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.fingerprint.find("completed=0 "), std::string::npos)
        << r.fingerprint;
}

/** Every fabric fault at once on a 4-machine cluster, 10 seeds: each
 *  machine's open-loop ledger balances, the partition and the
 *  workload are both live, and a same-seed rerun replays the whole
 *  run bit-exactly. */
TEST(ShardedChaos, TenSeedsFaultsAndCongestionThreadInvariant)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ClusterResult r = runCluster(seed);
        EXPECT_TRUE(r.conserved) << r.fingerprint;
        EXPECT_GT(r.partitionDrops, 0u);
        EXPECT_GT(r.completed, 0u);
        EXPECT_EQ(r.fingerprint, runCluster(seed).fingerprint);
    }
}

/** The partition window alone guarantees drops, so a zero means the
 *  fault plan is disconnected from the fabric and the replay check
 *  above proves nothing; the registry snapshot must show them too. */
TEST(ShardedChaos, FaultsActuallyFire)
{
    ClusterResult r = runCluster(3);
    EXPECT_GT(r.partitionDrops, 0u);
    EXPECT_NE(r.fingerprint.find("partition_drops"), std::string::npos)
        << r.fingerprint;
}
