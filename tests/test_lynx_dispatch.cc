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
 *  - every DropReason is registered under its documented path;
 *  - a staged batch the ring refuses mid-flush goes through the one
 *    failure rule: a registered VF parks, the default VF drops, and
 *    every VF's ledger balances.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/dispatcher.hh"
#include "lynx/gio.hh"
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

/** Unknown tenant ids refused (no auto-registration). */
core::TenantConfig
explicitTenants()
{
    core::TenantConfig c;
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
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, r.table);
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
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, r.table);
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
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, r.table);
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
    core::TenantId tenant = rt.tenants().add();
    core::SnicMqueue &q0 = d.queueAt(0);

    auto driver = [&]() -> sim::Task {
        // Oversized: refused before routing, so round robin still
        // starts at mq0.
        co_await d.dispatch(snicCore, request(40000, 0, 4096));
        // Tenant reject: an unregistered tenant id.
        co_await d.dispatch(snicCore, request(40000, 99));
        // No tag: mq0's table is full while the service as a whole
        // is below the occupancy gate; mq1 takes the next arrival.
        std::vector<std::uint32_t> held;
        while (auto tag = q0.allocTag(core::ClientRef{}))
            held.push_back(*tag);
        co_await d.dispatch(snicCore, request(40000)); // mq0: no tag
        co_await d.dispatch(snicCore, request(40000)); // mq1
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
    EXPECT_EQ(rt.tenants().inFlight(tenant), 0u);
}

/** A staged batch that overflows its ring mid-flush: the refused
 *  registered-VF request parks in its class and is delivered once the
 *  accelerator drains the ring; the refused default-VF request is
 *  dropped, counted once under dropped_ring_full and in the default
 *  VF's `lost`. For every VF, admitted = completed + lost +
 *  stale_dropped + in flight. */
TEST(DispatchOutcome, RingFullMidFlushParksRegisteredVfDropsDefaultVf)
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core snicCore{s, "snic.0"};
    core::TenantTable table(s, explicitTenants());
    const core::TenantId vf = table.add();
    core::SnicMqueueConfig mcfg;
    mcfg.maxBatch = 8;
    mcfg.tenants = &table;
    const core::MqueueLayout layout{0, 4, 256}; // a 4-slot ring
    core::SnicMqueue mq(s, "mq", qp, layout, core::MqueueKind::Server,
                        mcfg);
    core::AccelQueue gio(s, "gio", mem, layout);
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, table);
    d.addQueue(&mq);

    // Six staged arrivals, alternating VFs; the flush lands four and
    // the ring refuses one request of each VF.
    auto ingress = [&]() -> sim::Task {
        for (int i = 0; i < 6; ++i)
            co_await d.dispatch(snicCore,
                                request(40000, i % 2 ? vf : core::kDefaultVf));
        EXPECT_EQ(d.stats().counterValue("batch_flushes"), 0u);
        co_await d.flush(snicCore);
        EXPECT_EQ(d.tenantPending(), 1u);
    };
    std::vector<core::TenantId> served;
    auto accelerator = [&]() -> sim::Task {
        co_await sim::sleep(100_us); // the ring fills before it drains
        while (served.size() < 5) {
            core::GioMessage g = co_await gio.recv();
            std::optional<core::ClientRef> c = mq.tryReleaseTag(g.tag);
            if (!c) {
                ADD_FAILURE() << "unknown tag " << g.tag;
                co_return;
            }
            served.push_back(c->tenant);
            // The forwarder's close of the request, and the
            // Runtime's drain task.
            table.finish(c->tenant, c->tenantGen, s.now() - c->sentAt);
            co_await d.pumpTenants(snicCore);
            co_await d.flush(snicCore);
        }
    };
    sim::spawn(s, ingress());
    sim::spawn(s, accelerator());
    s.run();

    EXPECT_EQ(served, (std::vector<core::TenantId>{core::kDefaultVf, vf,
                                                   core::kDefaultVf, vf,
                                                   vf}));
    EXPECT_EQ(d.tenantPending(), 0u);
    EXPECT_EQ(d.stats().counterValue("dropped_ring_full"), 1u);
    EXPECT_EQ(totalDrops(d), 1u);
    EXPECT_EQ(table.statsOf(core::kDefaultVf).counterValue("lost"), 1u);
    EXPECT_EQ(table.statsOf(vf).counterValue("lost"), 0u);
    for (core::TenantId id = 0; id < table.idSpan(); ++id) {
        sim::StatSet &st = table.statsOf(id);
        EXPECT_EQ(st.counterValue("admitted"),
                  st.histogram("latency").count() +
                      st.counterValue("lost") +
                      st.counterValue("stale_dropped") +
                      table.inFlight(id))
            << "VF " << id;
        EXPECT_EQ(table.inFlight(id), 0u) << "VF " << id;
        EXPECT_EQ(table.tagsHeld(id), 0u) << "VF " << id;
    }
}
