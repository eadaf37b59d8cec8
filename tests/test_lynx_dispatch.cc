/**
 * @file
 * Dispatch-plane terminal outcomes: every request that fails in the
 * Message Dispatcher is counted exactly once, under a counter name
 * the metrics registry (and the benchmarks summing it) can find.
 *
 *  - a push whose transport dies with no surviving queue is one drop,
 *    not a drop per layer that saw it fail;
 *  - a push still retrying when a failover drain takes its tag
 *    belongs to the drain: requeued once, never also dropped or
 *    parked again;
 *  - every DropReason is registered under its documented path.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/dispatcher.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/network.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

const char *const kDispatchDrops[] = {
    "dropped_oversized",     "dropped_no_tag",
    "dropped_ring_full",     "dropped_transport",
    "dropped_no_live_queue", "dropped_tenant_reject"};

std::uint64_t
totalDrops(core::Dispatcher &d)
{
    std::uint64_t n = d.admissionStats().counterValue("shed_ring_full");
    for (const char *name : kDispatchDrops)
        n += d.stats().counterValue(name);
    return n;
}

net::Message
request(std::uint16_t srcPort, core::TenantId tenant = 0,
        std::size_t bytes = 32)
{
    net::Message m;
    m.src = {3, srcPort};
    m.dst = {1, 7000};
    m.proto = net::Protocol::Udp;
    m.payload.assign(bytes, 0x5a);
    m.tenant = tenant;
    return m;
}

/** Tenancy on, unknown tenant ids refused (no auto-registration). */
core::TenantConfig
explicitTenants()
{
    core::TenantConfig c;
    c.enabled = true;
    c.autoRegister = false;
    return c;
}

/** Two server mqueues, each behind its own QP into one accelerator's
 *  memory; only queue 0's QP fails (every op). Both queues retry
 *  failed writes, as failover deployments do. With @p tenanted the
 *  queues account ring tags to the rig's tenant table. */
struct FailingRig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair badQp{s, "qp.bad", mem, rdma::RdmaPathModel{}};
    rdma::QueuePair goodQp{s, "qp.good", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    sim::Core monitorCore{s, "snic.1"};
    sim::FaultPlan plan{sim::FaultConfig{.dropRate = 1.0}};
    core::TenantTable table{
        s, explicitTenants()};
    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;

    explicit FailingRig(bool tenanted = false)
    {
        rdma::QpFaultBinding fb;
        fb.plan = &plan;
        badQp.bindFaults(fb);
        core::SnicMqueueConfig mcfg;
        mcfg.retry.maxRetries = 4;
        mcfg.tenants = tenanted ? &table : nullptr;
        for (int q = 0; q < 2; ++q) {
            core::MqueueLayout layout{
                static_cast<std::uint64_t>(q) * 8192, 8, 256};
            mqs.push_back(std::make_unique<core::SnicMqueue>(
                s, "mq" + std::to_string(q), q == 0 ? badQp : goodQp,
                layout, core::MqueueKind::Server, mcfg));
        }
    }
};

} // namespace

/** With the only queue's transport dead, the arrival has nowhere to
 *  go: one terminal drop, counted once (the failed push re-dispatches
 *  and the re-dispatch reports the drop; the push does not count it
 *  a second time). */
TEST(DispatchOutcome, TransportFailureWithNoSurvivorCountsOneDrop)
{
    FailingRig r;
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin,
                       core::DispatcherConfig{});
    d.addQueue(r.mqs[0].get());

    auto driver = [&]() -> sim::Task {
        co_await d.dispatch(r.core, request(40000));
    };
    sim::spawn(r.s, driver());
    r.s.run();

    EXPECT_TRUE(r.mqs[0]->transportDead());
    EXPECT_EQ(d.stats().counterValue("dropped_transport") +
                  d.stats().counterValue("dropped_no_live_queue"),
              1u);
    EXPECT_EQ(totalDrops(d), 1u);
    EXPECT_EQ(d.stats().counterValue("dispatched"), 0u);
    EXPECT_EQ(r.mqs[0]->tagsInFlight(), 0u);
}

/** A failover drain that runs while a push is in its retry backoff
 *  takes the push's tag and requeues the request to the surviving
 *  queue. When the push finally fails it finds its tag gone and must
 *  leave the request to the drain: one outcome (requeued), no drop. */
TEST(DispatchOutcome, EvacuationMidRetryOwnsTheRequest)
{
    FailingRig r;
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin,
                       core::DispatcherConfig{});
    d.addQueue(r.mqs[0].get());
    d.addQueue(r.mqs[1].get());

    std::size_t moved = 0;
    bool evacuatedMidRetry = false;
    auto pusher = [&]() -> sim::Task {
        co_await d.dispatch(r.core, request(40000)); // lands on mq0
    };
    auto monitor = [&]() -> sim::Task {
        while (r.mqs[0]->stats().counterValue("rdma_retries") == 0)
            co_await sim::sleep(100_ns);
        evacuatedMidRetry = !r.mqs[0]->transportDead() &&
                            r.mqs[0]->tagsInFlight() == 1;
        d.setQueueDead(0, true);
        moved = co_await d.evacuate(r.monitorCore, 0);
    };
    sim::spawn(r.s, pusher());
    sim::spawn(r.s, monitor());
    r.s.run();

    EXPECT_TRUE(evacuatedMidRetry);
    // The original push did run out of retries after the drain.
    EXPECT_TRUE(r.mqs[0]->transportDead());
    EXPECT_EQ(moved, 1u);
    EXPECT_EQ(d.stats().counterValue("requeued"), 1u);
    EXPECT_EQ(d.stats().counterValue("dispatched"), 1u);
    EXPECT_EQ(totalDrops(d), 0u);
    EXPECT_EQ(r.mqs[0]->tagsInFlight(), 0u);
    EXPECT_EQ(r.mqs[1]->tagsInFlight(), 1u);
}

/** The tenant pump variant: the failed push must not park the
 *  request back in its class queue (a duplicate of the requeued
 *  copy), and the tenant's admitted request stays in flight once. */
TEST(DispatchOutcome, EvacuationMidRetryOwnsTheTenantRequest)
{
    FailingRig r(/*tenanted=*/true);
    core::TenantId t = r.table.add();
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin,
                       core::DispatcherConfig{.tenants = &r.table});
    d.addQueue(r.mqs[0].get());
    d.addQueue(r.mqs[1].get());

    std::size_t moved = 0;
    bool evacuatedMidRetry = false;
    auto pusher = [&]() -> sim::Task {
        co_await d.dispatch(r.core, request(40000, t));
    };
    auto monitor = [&]() -> sim::Task {
        while (r.mqs[0]->stats().counterValue("rdma_retries") == 0)
            co_await sim::sleep(100_ns);
        evacuatedMidRetry = !r.mqs[0]->transportDead() &&
                            r.mqs[0]->tagsInFlight() == 1;
        d.setQueueDead(0, true);
        moved = co_await d.evacuate(r.monitorCore, 0);
    };
    sim::spawn(r.s, pusher());
    sim::spawn(r.s, monitor());
    r.s.run();

    EXPECT_TRUE(evacuatedMidRetry);
    EXPECT_TRUE(r.mqs[0]->transportDead());
    EXPECT_EQ(moved, 1u);
    EXPECT_EQ(d.tenantPending(), 0u);
    EXPECT_EQ(d.stats().counterValue("dispatched"), 1u);
    EXPECT_EQ(totalDrops(d), 0u);
    EXPECT_EQ(r.mqs[1]->tagsInFlight(), 1u);
    EXPECT_EQ(r.table.inFlight(t), 1u);
    EXPECT_EQ(r.table.tagsHeld(t), 1u);
}

/** The benchmarks sum the dispatcher's drop counters by name into
 *  their failure accounting, and counterValue() reads a renamed
 *  counter as 0. Trigger every DropReason once through a Runtime's
 *  service, then find each counter, with that count, at its exact
 *  registry path. */
TEST(DispatchOutcome, EveryDropReasonIsRegisteredUnderItsName)
{
    sim::Simulator s;
    net::Network nw(s);
    net::Nic &nic = nw.addNic("snic");
    sim::Core snicCore(s, "snic.arm0");
    pcie::DeviceMemory accelMem("gpu0.mem", 1 << 20);

    core::RuntimeConfig cfg;
    cfg.cores = {&snicCore};
    cfg.nic = &nic;
    cfg.stack = calibration::vmaXeon();
    cfg.tenancy.enabled = true;
    cfg.tenancy.autoRegister = false;
    cfg.admission.enabled = true;
    core::Runtime rt(s, cfg);
    rt.addAccelerator("gpu0", accelMem, rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "svc";
    scfg.port = 7000;
    scfg.queuesPerAccel = 2;
    scfg.ringSlots = 4; // 8 tags per queue, 16 in all
    core::Dispatcher &d = rt.addService(scfg).dispatcher();
    core::TenantId tenant = rt.tenants()->add();
    core::SnicMqueue &q0 = d.queueAt(0);

    auto driver = [&]() -> sim::Task {
        // Oversized (routed to mq0 first: round robin starts there).
        co_await d.dispatch(snicCore, request(40000, 0, 4096));
        // Tenant reject: an unregistered tenant id.
        co_await d.dispatch(snicCore, request(40000, 99));
        // No tag: mq0's table is full while the service as a whole
        // is below the occupancy gate; mq1 takes the next arrival.
        std::vector<std::uint32_t> held;
        while (auto tag = q0.allocTag(core::ClientRef{}))
            held.push_back(*tag);
        co_await d.dispatch(snicCore, request(40000)); // mq1
        co_await d.dispatch(snicCore, request(40000)); // mq0: no tag
        for (std::uint32_t tag : held)
            q0.releaseTag(tag);
        // Transport: drain mq1's in-flight request without a retained
        // payload to requeue.
        d.setQueueDead(1, true);
        co_await d.evacuate(snicCore, 1);
        d.setQueueDead(1, false);
        // Ring full: nothing consumes, so mq1's four slots fill (one
        // already holds the evacuated request) and the next is refused.
        d.setQueueDead(0, true);
        for (int i = 0; i < 4; ++i)
            co_await d.dispatch(snicCore, request(40000));
        // Shed: nothing usable, so the occupancy gate refuses it.
        d.setQueueDead(1, true);
        co_await d.dispatch(snicCore, request(40000));
        // No live queue: an admitted tenant request finds no queue.
        co_await d.dispatch(snicCore, request(40000, tenant));
    };
    sim::spawn(s, driver());
    s.run();

    const sim::StatSet *dispatch = nullptr;
    const sim::StatSet *admission = nullptr;
    for (const auto &[path, set] : s.metrics().entries()) {
        if (path == "lynx.dispatch.svc")
            dispatch = set;
        if (path == "admission.svc")
            admission = set;
    }
    ASSERT_NE(dispatch, nullptr);
    ASSERT_NE(admission, nullptr);
    for (const char *name : kDispatchDrops) {
        auto it = dispatch->counters().find(name);
        ASSERT_NE(it, dispatch->counters().end()) << name;
        EXPECT_EQ(it->second.value(), 1u) << name;
    }
    auto shed = admission->counters().find("shed_ring_full");
    ASSERT_NE(shed, admission->counters().end());
    EXPECT_EQ(shed->second.value(), 1u);
    EXPECT_EQ(rt.tenants()->inFlight(tenant), 0u);
}
