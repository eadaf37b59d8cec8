/**
 * @file
 * Chaos suite for accelerator-side batched rings: seeded FaultPlans
 * drop and delay link/RDMA transfers (and partition the remote
 * machine) while a fully batched Lynx echo service — SNIC-side
 * coalesced RX writes feeding gio recvBatch, responses committed
 * with sendBatch into pipelined pollTxBatch drains — serves closed-
 * loop traffic from a local and a remote GPU with failover enabled.
 *
 * The invariants, per fault kind and seed:
 *  - zero payload corruption ever reaches a client;
 *  - batched sweeps keep consuming through kSlotSkipErr gap-repair
 *    slots (the run makes progress and completes cleanly after
 *    heal() even when RDMA faults punched holes into the rings);
 *  - the batch counters prove the batched paths actually ran.
 */

#include <gtest/gtest.h>

#include <cstdint>
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

std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(64);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 131 + b * 17 + 7);
    return p;
}

enum class FaultKind { Drop, Delay, Partition };

struct ChaosOutcome
{
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;
    std::uint64_t injected = 0;
    std::uint64_t batchRecvs = 0;
    std::uint64_t batchSends = 0;
    int convergedSent = 0;
    int converged = 0;
};

/**
 * One chaos run with every batching knob ON: faults active for the
 * first 18 ms, then healed; a convergence client verifies the healed
 * batched service end to end.
 */
ChaosOutcome
runBatchedChaos(FaultKind kind, std::uint64_t seed)
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
    case FaultKind::Delay: fc.delayRate = 0.08; break;
    case FaultKind::Partition: break;
    }
    sim::FaultPlan plan(fc);
    if (kind == FaultKind::Partition)
        plan.partition(bf.node(), remoteHost.id(), 3_ms, 12_ms);
    nw.setFaultPlan(&plan);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.retry = calibration::rdmaSwRetryPolicy();
    cfg.mq.maxBatch = 8;
    cfg.dispatchFlushLinger = 30_us;
    cfg.forwarder.maxBatch = 8;
    cfg.gio.rxBurst = true;
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
    apps::ServiceBatchConfig bcfg;
    bcfg.maxBatch = 4;
    bcfg.linger = 10_us;
    sim::spawn(s, apps::runEchoBlock(gpuL, *qsL[0], 2_us, 0, bcfg));
    sim::spawn(s, apps::runEchoBlock(gpuR, *qsR[0], 2_us, 0, bcfg));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 4;
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
    out.injected = ps.counterValue("drops") + ps.counterValue("delays") +
                   ps.counterValue("partition_drops");
    for (auto *q : {qsL[0].get(), qsR[0].get()}) {
        out.batchRecvs += q->stats().histogram("batch.recv_size").count();
        out.batchSends += q->stats().histogram("batch.send_size").count();
    }
    return out;
}

} // namespace

/**
 * Drop faults punch holes into the RDMA rings (repaired with
 * kSlotSkipErr markers); the batched sweeps must consume straight
 * through them: no corrupted response, service converges after heal.
 */
TEST(GpuBatchingChaos, BatchedRingsSurviveDropFaults)
{
    for (std::uint64_t seed : {3ull, 9ull}) {
        ChaosOutcome out = runBatchedChaos(FaultKind::Drop, seed);
        EXPECT_EQ(out.failures, 0u) << "seed " << seed;
        EXPECT_GT(out.completed, 0u) << "seed " << seed;
        EXPECT_GT(out.injected, 0u) << "seed " << seed;
        EXPECT_GT(out.batchRecvs, 0u) << "seed " << seed;
        EXPECT_GT(out.batchSends, 0u) << "seed " << seed;
        EXPECT_EQ(out.converged, out.convergedSent) << "seed " << seed;
    }
}

/** Delay faults reorder completions across the batched rings; every
 *  response must still match its request byte-for-byte. */
TEST(GpuBatchingChaos, BatchedRingsSurviveDelayFaults)
{
    for (std::uint64_t seed : {5ull, 11ull}) {
        ChaosOutcome out = runBatchedChaos(FaultKind::Delay, seed);
        EXPECT_EQ(out.failures, 0u) << "seed " << seed;
        EXPECT_GT(out.completed, 0u) << "seed " << seed;
        EXPECT_GT(out.injected, 0u) << "seed " << seed;
        EXPECT_GT(out.batchRecvs, 0u) << "seed " << seed;
        EXPECT_EQ(out.converged, out.convergedSent) << "seed " << seed;
    }
}

/** A mid-run partition of the remote machine must not corrupt a
 *  single batched response, and the service must converge once the
 *  partition lifts (failover keeps the local GPU serving). */
TEST(GpuBatchingChaos, BatchedRingsSurvivePartitionAndFailover)
{
    ChaosOutcome out = runBatchedChaos(FaultKind::Partition, 7);
    EXPECT_EQ(out.failures, 0u);
    EXPECT_GT(out.completed, 0u);
    EXPECT_GT(out.batchRecvs, 0u);
    EXPECT_EQ(out.converged, out.convergedSent);
}
