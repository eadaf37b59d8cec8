/**
 * @file
 * Deterministic chaos suite for the fault-injection & failover
 * extension (docs/INTERNALS.md §7): seeded FaultPlans drop, corrupt,
 * delay and partition link/RDMA transfers while Lynx serves echo
 * traffic from local and remote accelerators. The invariants under
 * every fault mix and seed:
 *
 *  - zero payload corruption ever reaches a client (checksums turn
 *    corruption into drops/retransmits);
 *  - no request is lost silently: closed-loop clients observe every
 *    loss as a timeout, and injected faults show up in counters;
 *  - after heal() the service converges: fresh requests all complete
 *    byte-exactly, and partitioned mqueues are revived.
 *
 * Also here: the failover end-to-end test on the Fig. 8b scale-out
 * topology (kill one remote machine mid-run, byte-exact throughout,
 * throughput recovers after revival) and the golden-timestamp guard
 * proving an attached-but-zero FaultPlan changes nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "rdma/qp.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "snic/bluefield.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

/** Request payload as a pure function of the sequence number, so a
 *  validator can recompute the expected bytes from the response
 *  alone (byte-exactness survives reordering and retries). */
std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(64);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 131 + b * 17 + 7);
    return p;
}

enum class FaultKind { Drop, Corrupt, Delay, Partition };

const char *
kindName(FaultKind k)
{
    switch (k) {
    case FaultKind::Drop: return "drop";
    case FaultKind::Corrupt: return "corrupt";
    case FaultKind::Delay: return "delay";
    case FaultKind::Partition: return "partition";
    }
    return "?";
}

struct ChaosOutcome
{
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;
    std::uint64_t injected = 0;
    std::uint64_t corruptionsDetected = 0;
    std::uint64_t died = 0;
    std::uint64_t revived = 0;
    int convergedSent = 0;
    int converged = 0;
};

/**
 * One chaos run: a Bluefield Lynx echo service over one local and one
 * remote GPU, failover on (calibrated retry policy), with @p kind
 * faults at seed @p seed active for the first 18 ms, then healed; a
 * convergence client then verifies the healed service end to end.
 */
ChaosOutcome
runChaos(FaultKind kind, std::uint64_t seed)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    host::Node remoteHost(s, nw, "server1");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpuL(s, "gpu-local", fabric);
    accel::Gpu gpuR(s, "gpu-remote", remoteHost.fabric());

    sim::FaultConfig fc;
    fc.seed = seed * 0x9e3779b97f4a7c15ull + 1;
    switch (kind) {
    case FaultKind::Drop: fc.dropRate = 0.04; break;
    case FaultKind::Corrupt: fc.corruptRate = 0.04; break;
    case FaultKind::Delay: fc.delayRate = 0.08; break;
    case FaultKind::Partition: break;
    }
    sim::FaultPlan plan(fc);
    if (kind == FaultKind::Partition)
        plan.partition(bf.node(), remoteHost.id(), 3_ms, 12_ms);
    nw.setFaultPlan(&plan);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.retry = calibration::rdmaSwRetryPolicy();
    core::Runtime rt(s, cfg);
    rdma::RdmaPathModel lp;
    auto &hl = rt.addAccelerator("local", gpuL.memory(), lp);
    auto &hr = rt.addAccelerator(
        "remote", gpuR.memory(),
        lp.viaNetwork(calibration::rdmaRemoteExtraOneWay));
    rdma::QpFaultBinding fb;
    fb.plan = &plan;
    fb.initiator = bf.node();
    fb.target = remoteHost.id();
    hr.qp().bindFaults(fb);

    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto qsL = rt.makeAccelQueues(svc, hl);
    auto qsR = rt.makeAccelQueues(svc, hr);
    sim::spawn(s, apps::runEchoBlock(gpuL, *qsL[0], 2_us));
    sim::spawn(s, apps::runEchoBlock(gpuR, *qsR[0], 2_us));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 3;
    lg.warmup = 1_ms;
    lg.duration = 16_ms;
    lg.requestTimeout = 2_ms;
    lg.seed = seed;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    workload::LoadGen gen(s, lg);
    gen.start();

    const sim::Tick healAt = 18_ms;
    s.schedule(healAt, [&] { plan.heal(); });

    ChaosOutcome out;
    auto convergence = [&]() -> sim::Task {
        co_await sim::sleep(healAt + 5_ms);
        auto &ep = clientNic.bind(net::Protocol::Udp, 45000);
        for (int i = 0; i < 10; ++i) {
            std::uint64_t seq = 1000000 + static_cast<std::uint64_t>(i);
            net::Message m;
            m.src = {clientNic.node(), 45000};
            m.dst = {bf.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = payloadFor(seq);
            m.seq = seq;
            ++out.convergedSent;
            co_await clientNic.send(std::move(m));
            auto resp = co_await workload::recvTimeout(s, ep, 10_ms);
            if (resp && resp->seq == seq &&
                resp->payload == payloadFor(seq))
                ++out.converged;
        }
    };
    sim::spawn(s, convergence());
    s.runUntil(140_ms);

    out.completed = gen.completed();
    out.timeouts = gen.timeouts();
    out.failures = gen.validationFailures();
    auto &ps = plan.stats();
    out.injected = ps.counterValue("drops") +
                   ps.counterValue("corruptions") +
                   ps.counterValue("delays") +
                   ps.counterValue("partition_drops");
    out.corruptionsDetected =
        bf.nic().stats().counterValue("rx_drop_corrupt") +
        clientNic.stats().counterValue("rx_drop_corrupt") +
        hr.qp().stats().counterValue("hw_retransmits");
    for (const auto &mon : rt.monitors()) {
        out.died += mon->stats().counterValue("mqueues_died");
        out.revived += mon->stats().counterValue("mqueues_revived");
    }
    return out;
}

} // namespace

/* ------------------------------------------------------------------ */
/* FaultPlan unit behaviour                                           */
/* ------------------------------------------------------------------ */

TEST(FaultPlan, SameSeedReplaysIdenticalVerdicts)
{
    sim::FaultConfig fc;
    fc.dropRate = 0.3;
    fc.corruptRate = 0.2;
    fc.delayRate = 0.25;
    fc.seed = 77;
    sim::FaultPlan a(fc), b(fc);
    for (int i = 0; i < 2000; ++i) {
        auto va = a.judge(1, 2, i);
        auto vb = b.judge(1, 2, i);
        ASSERT_EQ(va.drop, vb.drop) << "judgement " << i;
        ASSERT_EQ(va.corrupt, vb.corrupt) << "judgement " << i;
        ASSERT_EQ(va.delay, vb.delay) << "judgement " << i;
    }
}

TEST(FaultPlan, ZeroPlanIsDisabledAndPartitionEnablesIt)
{
    sim::FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    plan.partition(1, 2, 100, 200);
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.partitioned(1, 2, 150));
    EXPECT_TRUE(plan.partitioned(2, 1, 150)); // bidirectional
    EXPECT_FALSE(plan.partitioned(1, 2, 99));
    EXPECT_FALSE(plan.partitioned(1, 2, 200));
    EXPECT_FALSE(plan.partitioned(1, 3, 150));
    plan.heal();
    EXPECT_FALSE(plan.enabled());
    EXPECT_FALSE(plan.partitioned(1, 2, 150));
}

TEST(FaultPlan, WildcardPartitionMatchesEveryPeer)
{
    sim::FaultPlan plan;
    plan.partition(sim::FaultPlan::kAnyNode, 4, 0, 10);
    EXPECT_TRUE(plan.partitioned(0, 4, 5));
    EXPECT_TRUE(plan.partitioned(4, 17, 5));
    EXPECT_FALSE(plan.partitioned(1, 2, 5));
}

TEST(FaultPlan, CorruptInPlaceAlwaysChangesBytes)
{
    sim::FaultConfig fc;
    fc.seed = 5;
    sim::FaultPlan plan(fc);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::uint8_t> data(32, 0xab);
        const std::vector<std::uint8_t> orig = data;
        plan.corruptInPlace(data);
        EXPECT_NE(data, orig) << "round " << round;
    }
}

/* ------------------------------------------------------------------ */
/* Fabric- and QP-level fault surfacing                               */
/* ------------------------------------------------------------------ */

TEST(FaultInjection, CorruptedFrameIsDroppedByChecksumNotDelivered)
{
    sim::Simulator s;
    net::Network nw(s);
    auto &a = nw.addNic("a");
    auto &b = nw.addNic("b");
    sim::FaultConfig fc;
    fc.corruptRate = 1.0;
    sim::FaultPlan plan(fc);
    nw.setFaultPlan(&plan);

    auto &ep = b.bind(net::Protocol::Udp, 9);
    auto sender = [&]() -> sim::Task {
        net::Message m;
        m.src = {a.node(), 1};
        m.dst = {b.node(), 9};
        m.proto = net::Protocol::Udp;
        m.payload = {1, 2, 3, 4};
        co_await a.send(std::move(m));
    };
    sim::spawn(s, sender());
    s.run();

    EXPECT_EQ(ep.backlog(), 0u);
    EXPECT_EQ(b.stats().counterValue("rx_drop_corrupt"), 1u);
    EXPECT_EQ(nw.stats().counterValue("corrupted_in_fabric"), 1u);
    EXPECT_EQ(plan.stats().counterValue("corruptions"), 1u);
}

TEST(FaultInjection, PartitionWindowDropsThenHealsOnSchedule)
{
    sim::Simulator s;
    net::Network nw(s);
    auto &a = nw.addNic("a");
    auto &b = nw.addNic("b");
    sim::FaultPlan plan;
    plan.partition(a.node(), b.node(), 1_ms, 2_ms);
    nw.setFaultPlan(&plan);

    auto &ep = b.bind(net::Protocol::Udp, 9);
    auto sendAt = [&](sim::Tick when) -> sim::Task {
        co_await sim::sleep(when);
        net::Message m;
        m.src = {a.node(), 1};
        m.dst = {b.node(), 9};
        m.proto = net::Protocol::Udp;
        m.payload = {9};
        co_await a.send(std::move(m));
    };
    sim::spawn(s, sendAt(1500_us)); // inside the window: dropped
    sim::spawn(s, sendAt(2500_us)); // after the window: delivered
    s.run();

    EXPECT_EQ(ep.backlog(), 1u);
    EXPECT_EQ(nw.stats().counterValue("dropped_by_fault"), 1u);
    EXPECT_EQ(plan.stats().counterValue("partition_drops"), 1u);
}

TEST(FaultInjection, RdmaWriteErrorSurfacesAndDataNeverLands)
{
    sim::Simulator s;
    pcie::DeviceMemory mem("m", 4096);
    rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
    sim::FaultConfig fc;
    fc.dropRate = 1.0;
    sim::FaultPlan plan(fc);
    rdma::QpFaultBinding fb;
    fb.plan = &plan;
    qp.bindFaults(fb);

    rdma::WcStatus st = rdma::WcStatus::Ok;
    auto writer = [&]() -> sim::Task {
        std::vector<std::uint8_t> data(8, 0x5a);
        st = co_await qp.write(64, data);
        EXPECT_EQ(st, rdma::WcStatus::Error);
        // The transport burned its full retransmit budget first.
        EXPECT_EQ(qp.stats().counterValue("hw_retransmits"), 4u);
        EXPECT_EQ(qp.stats().counterValue("wc_errors"), 1u);
        // Heal: the very next op succeeds (no sticky QP error state).
        plan.heal();
        st = co_await qp.write(64, data);
    };
    sim::spawn(s, writer());
    s.run();

    EXPECT_EQ(st, rdma::WcStatus::Ok);
    std::vector<std::uint8_t> out(8);
    mem.read(64, out);
    EXPECT_EQ(out, std::vector<std::uint8_t>(8, 0x5a));
}

TEST(FaultInjection, RetryPolicyBackoffIsExponentialAndCapped)
{
    rdma::RdmaRetryPolicy p;
    EXPECT_FALSE(p.enabled()); // off by default: seed fast path
    p.maxRetries = 4;
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.backoff(0), 2_us);
    EXPECT_EQ(p.backoff(1), 4_us);
    EXPECT_EQ(p.backoff(2), 8_us);
    EXPECT_EQ(p.backoff(5), 64_us);
    EXPECT_EQ(p.backoff(40), 64_us); // shift clamped, no UB
}

/* ------------------------------------------------------------------ */
/* Golden guard: attached-but-zero plan changes nothing               */
/* ------------------------------------------------------------------ */

/** The chaos machinery must be invisible when idle: the seed echo
 *  golden timestamps with a constructed-but-all-zero FaultPlan
 *  attached to both the fabric and the QP (cf. the identical test
 *  without a plan in test_lynx_batching.cc). */
TEST(LynxFaults, ZeroFaultPlanReproducesSeedEchoTimestampsExactly)
{
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    host::Node server(s, network, "server");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "gpu", fabric);

    sim::FaultPlan plan; // all-zero: enabled() == false
    network.setFaultPlan(&plan);

    std::vector<sim::Core *> cores{&server.cores()[0]};
    core::RuntimeConfig cfg = snic::hostRuntimeConfig(cores, server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu", gpu.memory(),
                                    rdma::RdmaPathModel{});
    rdma::QpFaultBinding fb;
    fb.plan = &plan;
    fb.initiator = server.id();
    fb.target = server.id();
    accel.qp().bindFaults(fb);
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

/* ------------------------------------------------------------------ */
/* The chaos sweep (satellite a): >= 20 seeds x 4 fault kinds         */
/* ------------------------------------------------------------------ */

class LynxChaos : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(LynxChaos, NoCorruptionNoSilentLossEventualConvergence)
{
    const std::uint64_t seed = GetParam();
    for (FaultKind kind : {FaultKind::Drop, FaultKind::Corrupt,
                           FaultKind::Delay, FaultKind::Partition}) {
        SCOPED_TRACE(::testing::Message()
                     << "kind=" << kindName(kind) << " seed=" << seed);
        ChaosOutcome o = runChaos(kind, seed);

        // Byte-exactness: not one validated response ever differed
        // from its request, under any fault mix.
        EXPECT_EQ(o.failures, 0u);
        // The adversary really fired...
        EXPECT_GT(o.injected, 0u);
        // ...yet the service kept making progress under fire.
        EXPECT_GT(o.completed, 100u);
        // Convergence: after heal every fresh request completes.
        EXPECT_EQ(o.convergedSent, 10);
        EXPECT_EQ(o.converged, o.convergedSent);

        if (kind == FaultKind::Drop) {
            // No silent loss: dropped datagrams surfaced as client
            // timeouts (closed-loop accounting), not vanished work.
            EXPECT_GT(o.timeouts, 0u);
        }
        if (kind == FaultKind::Corrupt) {
            // Every corruption that reached a checksum was caught
            // there (frame CRC drop or RDMA ICRC retransmit).
            EXPECT_GT(o.corruptionsDetected, 0u);
        }
        if (kind == FaultKind::Partition) {
            // The partitioned remote mqueue was declared dead and,
            // after the window closed, revived.
            EXPECT_GE(o.died, 1u);
            EXPECT_GE(o.revived, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LynxChaos,
                         ::testing::Range<std::uint64_t>(1, 21));

/* ------------------------------------------------------------------ */
/* Failover end-to-end (satellite b): Fig. 8b scale-out topology      */
/* ------------------------------------------------------------------ */

/**
 * Kill one remote machine mid-run on the Fig. 8b scale-out shape
 * (2 local + 2 remote GPUs): its mqueues must be declared dead and
 * their in-flight requests re-queued to survivors; every response
 * stays byte-exact; after the partition heals the queues revive and
 * the remote GPUs serve traffic again at the pre-fault rate.
 */
TEST(LynxFailover, RemoteMachineDeathAndRevivalOnScaleout)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    host::Node server0(s, nw, "server0");
    host::Node server1(s, nw, "server1");
    accel::Gpu g0(s, "gpu0", server0.fabric());
    accel::Gpu g1(s, "gpu1", server0.fabric());
    accel::Gpu g2(s, "gpu2", server1.fabric());
    accel::Gpu g3(s, "gpu3", server1.fabric());

    sim::FaultPlan plan;
    plan.partition(bf.node(), server1.id(), 10_ms, 28_ms);
    nw.setFaultPlan(&plan);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.retry = calibration::rdmaSwRetryPolicy();
    core::Runtime rt(s, cfg);
    rdma::RdmaPathModel lp;
    auto remote = lp.viaNetwork(calibration::rdmaRemoteExtraOneWay);
    auto &h0 = rt.addAccelerator("gpu0", g0.memory(), lp);
    auto &h1 = rt.addAccelerator("gpu1", g1.memory(), lp);
    auto &h2 = rt.addAccelerator("gpu2", g2.memory(), remote);
    auto &h3 = rt.addAccelerator("gpu3", g3.memory(), remote);
    for (core::AccelHandle *h : {&h2, &h3}) {
        rdma::QpFaultBinding fb;
        fb.plan = &plan;
        fb.initiator = bf.node();
        fb.target = server1.id();
        h->qp().bindFaults(fb);
    }

    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    accel::Gpu *gpus[] = {&g0, &g1, &g2, &g3};
    core::AccelHandle *handles[] = {&h0, &h1, &h2, &h3};
    for (int i = 0; i < 4; ++i) {
        auto qs = rt.makeAccelQueues(svc, *handles[i]);
        sim::spawn(s, apps::runEchoBlock(*gpus[i], *qs[0], 20_us));
        for (auto &q : qs)
            queues.push_back(std::move(q));
    }
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 8;
    lg.warmup = 2_ms;
    lg.duration = 58_ms;
    lg.requestTimeout = 4_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    workload::LoadGen gen(s, lg);
    gen.start();

    // rt.mqueues() order follows the accelerator list: 2, 3 = remote.
    auto remoteRxPushed = [&rt]() {
        return rt.mqueues()[2]->stats().counterValue("rx_pushed") +
               rt.mqueues()[3]->stats().counterValue("rx_pushed");
    };
    std::uint64_t completedAtKill = 0, completedAtHeal = 0;
    std::uint64_t remoteRxAtHeal = 0;
    s.schedule(10_ms, [&] { completedAtKill = gen.completed(); });
    s.schedule(30_ms, [&] {
        completedAtHeal = gen.completed();
        remoteRxAtHeal = remoteRxPushed();
    });
    s.runUntil(75_ms);

    // Byte-exact responses throughout, including across the failover.
    EXPECT_EQ(gen.validationFailures(), 0u);
    EXPECT_GT(gen.completed(), 1000u);

    std::uint64_t died = 0, revived = 0, requeued = 0;
    for (const auto &mon : rt.monitors()) {
        died += mon->stats().counterValue("mqueues_died");
        revived += mon->stats().counterValue("mqueues_revived");
        requeued += mon->stats().counterValue("requests_requeued");
    }
    // Both remote mqueues died during the partition and were revived
    // after it healed; in-flight work was evacuated, not dropped.
    EXPECT_EQ(died, 2u);
    EXPECT_EQ(revived, 2u);
    EXPECT_GE(requeued, 1u);

    // The revived queues carry fresh traffic again...
    EXPECT_GT(remoteRxPushed(), remoteRxAtHeal);

    // ...and throughput recovered: the post-heal rate is at least
    // 70% of the pre-fault rate (closed loop; deterministic run).
    double preRate =
        static_cast<double>(completedAtKill) / 8.0; // [2, 10) ms
    double postRate =
        static_cast<double>(gen.completed() - completedAtHeal) /
        30.0; // [30, 60) ms
    EXPECT_GT(postRate, 0.7 * preRate);
}
