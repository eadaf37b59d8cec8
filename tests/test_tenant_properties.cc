/**
 * @file
 * Property tests of the multi-tenant dispatch plane (DESIGN.md §9):
 * smooth-WRR invariants under random sweeps (weight-proportional
 * service within a bounded window, work conservation when only one
 * tenant has work), TenantTable admission-cap and mqueue-quota
 * invariants (the cap and the quota are never exceeded, rejections
 * are counted), and tag-namespace staleness (a retired generation's
 * responses are dropped-and-counted, never delivered). Mirrors the
 * structure of test_congestion_properties.cc: pure-unit sweeps first,
 * then an integration rig of Dispatcher + SnicMqueue + AccelQueue.
 */

#include <gtest/gtest.h>

#include <vector>

#include "lynx/dispatcher.hh"
#include "lynx/gio.hh"
#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/message.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::DispatchPolicy;
using lynx::core::Dispatcher;
using lynx::core::DispatcherConfig;
using lynx::core::GioMessage;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SnicMqueue;
using lynx::core::SnicMqueueConfig;
using lynx::core::TenantConfig;
using lynx::core::TenantId;
using lynx::core::TenantQuota;
using lynx::core::TenantTable;
using lynx::core::WrrPicker;

/*
 * ----- WrrPicker (pure unit sweeps) -----
 */

/** Smooth WRR's bounded-window guarantee: with stable eligibility,
 *  every window of sum(weights) consecutive picks serves entry i
 *  exactly weight(i) times — for random entry counts and weights,
 *  and from the very first window (no warm-up cycles). */
TEST(WrrProperties, WeightProportionalWithinEveryCycle)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        const std::size_t n = 2 + rng.below(5); // 2..6 tenants
        std::vector<std::int64_t> weights(n);
        std::int64_t total = 0;
        for (auto &w : weights) {
            w = 1 + static_cast<std::int64_t>(rng.below(8));
            total += w;
        }
        WrrPicker p;
        for (int cycle = 0; cycle < 10; ++cycle) {
            std::vector<std::int64_t> count(n, 0);
            for (std::int64_t k = 0; k < total; ++k) {
                std::size_t i =
                    p.pick(n, [&](std::size_t j) { return weights[j]; });
                ASSERT_LT(i, n);
                ++count[i];
            }
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(count[i], weights[i])
                    << "cycle " << cycle << " entry " << i;
        }
    }
}

/** Work conservation: whatever credit history has accumulated, the
 *  picker always serves *some* eligible entry — the sole eligible
 *  one when only one has work, and kNone only when nothing does. */
TEST(WrrProperties, WorkConservingUnderRandomEligibility)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        const std::size_t n = 4;
        std::vector<std::int64_t> weights(n);
        for (auto &w : weights)
            w = 1 + static_cast<std::int64_t>(rng.below(8));
        WrrPicker p;
        for (int step = 0; step < 500; ++step) {
            std::uint64_t mask = rng.below(1u << n); // possibly empty
            std::size_t i = p.pick(n, [&](std::size_t j) {
                return (mask >> j) & 1 ? weights[j] : 0;
            });
            if (mask == 0) {
                EXPECT_EQ(i, WrrPicker::kNone);
            } else {
                ASSERT_LT(i, n);
                EXPECT_TRUE((mask >> i) & 1)
                    << "picked an ineligible entry";
                // A lone eligible entry is always the winner,
                // no matter how starved its credit is.
                if ((mask & (mask - 1)) == 0) {
                    EXPECT_EQ(mask, 1ull << i);
                }
            }
        }
    }
}

/** unpick() is an exact inverse of pick(): a refunded turn leaves no
 *  trace, so a re-pick under the same eligibility chooses the same
 *  winner, and randomly injected pick/unpick pairs (a full ring's
 *  "doomed pick") never disturb the per-cycle proportionality. */
TEST(WrrProperties, UnpickRestoresStateExactly)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        const std::size_t n = 2 + rng.below(5);
        std::vector<std::int64_t> weights(n);
        std::int64_t total = 0;
        for (auto &w : weights) {
            w = 1 + static_cast<std::int64_t>(rng.below(8));
            total += w;
        }
        WrrPicker p;
        auto fn = [&](std::size_t j) { return weights[j]; };
        for (int cycle = 0; cycle < 10; ++cycle) {
            std::vector<std::int64_t> count(n, 0);
            for (std::int64_t k = 0; k < total; ++k) {
                // Fail-and-refund a few turns before the served one.
                while (rng.below(3) == 0) {
                    std::size_t doomed = p.pick(n, fn);
                    ASSERT_LT(doomed, n);
                    p.unpick();
                    std::size_t again = p.pick(n, fn);
                    EXPECT_EQ(again, doomed)
                        << "refunded pick left a trace";
                    p.unpick();
                }
                std::size_t i = p.pick(n, fn);
                ASSERT_LT(i, n);
                ++count[i];
            }
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(count[i], weights[i])
                    << "cycle " << cycle << " entry " << i;
        }
        p.unpick(); // refunds the cycle's final pick…
        p.unpick(); // …and the second refund is a guarded no-op
        std::size_t i = p.pick(n, fn);
        ASSERT_LT(i, n); // the picker still serves afterwards
    }
}

/*
 * ----- TenantTable admission + generations (unit) -----
 */

/** The maxInFlight cap is never exceeded under random interleavings
 *  of arrivals and completions, every arrival is accounted exactly
 *  once (admitted or rejected), and draining returns each tenant to
 *  zero in flight. */
TEST(TenantTableProperties, AdmissionCapNeverExceeded)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        sim::Simulator s;
        TenantConfig cfg;
        cfg.autoRegister = false;
        TenantTable table(s, cfg);

        const std::size_t n = 1 + rng.below(4);
        std::vector<TenantId> ids;
        std::vector<std::uint32_t> cap(n);
        for (std::size_t i = 0; i < n; ++i) {
            TenantQuota q;
            q.maxInFlight = 1 + static_cast<std::uint32_t>(rng.below(8));
            cap[i] = q.maxInFlight;
            ids.push_back(table.add(q));
        }

        std::vector<std::uint64_t> attempts(n, 0);
        for (int step = 0; step < 1000; ++step) {
            std::size_t i = rng.below(n);
            if (rng.chance(0.55)) {
                ++attempts[i];
                table.admit(ids[i]);
            } else if (table.inFlight(ids[i]) > 0) {
                table.completed(ids[i], 1_us);
            }
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_LE(table.inFlight(ids[j]), cap[j]);
        }
        for (std::size_t i = 0; i < n; ++i) {
            sim::StatSet &st = table.statsOf(ids[i]);
            EXPECT_EQ(st.counterValue("admitted") +
                          st.counterValue("rejected"),
                      attempts[i]);
            while (table.inFlight(ids[i]) > 0)
                table.completed(ids[i], 1_us);
            EXPECT_EQ(table.inFlight(ids[i]), 0u);
        }
    }
}

/** Unknown tenants auto-register with the default quota when
 *  configured, and are rejected (counted at table level as zero
 *  registrations) when not. */
TEST(TenantTableProperties, AutoRegisterPolicyGovernsUnknownIds)
{
    sim::Simulator s;
    TenantConfig off;
    off.autoRegister = false;
    {
        TenantTable t(s, off);
        EXPECT_FALSE(t.admit(3));
        EXPECT_FALSE(t.known(3));
    }
    TenantConfig on;
    on.autoRegister = true;
    on.defaults.weight = 5;
    TenantTable t(s, on);
    EXPECT_TRUE(t.admit(3)); // densely fills ids 1..3
    EXPECT_TRUE(t.known(1));
    EXPECT_TRUE(t.known(2));
    EXPECT_TRUE(t.known(3));
    EXPECT_EQ(t.weight(3), 5);
    EXPECT_EQ(t.inFlight(3), 1u);
    EXPECT_EQ(t.stats().counterValue("auto_registered"), 3u);
}

/** Tag-namespace staleness: retiring a tenant bumps its generation,
 *  so (a) new arrivals are rejected, (b) responses carrying the old
 *  generation are reported non-deliverable and counted under
 *  stale_dropped, and (c) every stale finish still releases its
 *  in-flight slot — the retired VF drains to zero, never wedges. */
TEST(TenantTableProperties, RetiredGenerationIsNeverDeliverable)
{
    sim::Simulator s;
    TenantConfig cfg;
    TenantTable table(s, cfg);
    TenantId id = table.add();

    ASSERT_TRUE(table.admit(id));
    ASSERT_TRUE(table.admit(id));
    ASSERT_TRUE(table.admit(id));
    const std::uint16_t oldGen = table.generation(id);
    EXPECT_TRUE(table.current(id, oldGen));

    table.retire(id);
    EXPECT_FALSE(table.active(id));
    EXPECT_TRUE(table.known(id)); // id space is never recycled
    EXPECT_FALSE(table.current(id, oldGen));
    EXPECT_FALSE(table.admit(id)); // rejected, counted

    // A response answered to the current generation delivers...
    TenantId fresh = table.add();
    ASSERT_TRUE(table.admit(fresh));
    EXPECT_TRUE(table.finish(fresh, table.generation(fresh), 2_us));

    // ...but all three of the retiree's in-flight responses drain as
    // counted stale drops, never as deliveries.
    for (int i = 0; i < 3; ++i)
        EXPECT_FALSE(table.finish(id, oldGen, 2_us));
    EXPECT_EQ(table.inFlight(id), 0u);
    sim::StatSet &st = table.statsOf(id);
    EXPECT_EQ(st.counterValue("stale_dropped"), 3u);
    EXPECT_EQ(st.counterValue("rejected"), 1u);
    EXPECT_EQ(st.counterValue("admitted"), 3u);
}

/*
 * ----- Integration rig: Dispatcher + SnicMqueue + AccelQueue -----
 */

namespace {

struct Rig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout{0, 8, 256};
};

net::Message
tenantMsg(TenantId t, std::uint64_t seq)
{
    net::Message m;
    m.payload.assign(32, static_cast<std::uint8_t>(t * 17 + seq));
    m.tenant = t;
    m.seq = seq;
    return m;
}

} // namespace

/** The mqueue quota is a hard in-flight bound: across random
 *  interleavings, a tenant's concurrently held ring tags never
 *  exceed its quota — excess work waits in its class queue — and
 *  everything is eventually delivered (deferred, not dropped). */
TEST(TenantDispatchProperties, MqueueQuotaNeverExceeded)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        sim::Rng rng(seed);
        Rig r;
        TenantConfig tcfg;
        tcfg.autoRegister = false;
        TenantTable table(r.s, tcfg);
        constexpr std::size_t kTenants = 3;
        constexpr int kPerTenant = 8;
        std::vector<TenantId> ids;
        std::vector<std::uint32_t> quota(kTenants);
        for (std::size_t i = 0; i < kTenants; ++i) {
            TenantQuota q;
            q.weight = 1 + static_cast<int>(rng.below(4));
            q.mqueueQuota = 1 + static_cast<std::uint32_t>(rng.below(3));
            quota[i] = q.mqueueQuota;
            ids.push_back(table.add(q));
        }

        SnicMqueueConfig mcfg;
        mcfg.tenants = &table;
        SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, mcfg);
        AccelQueue gio(r.s, "gio", r.mem, r.layout);
        Dispatcher d("d", DispatchPolicy::RoundRobin, table);
        d.addQueue(&mq);

        // Random interleaving of each tenant's kPerTenant arrivals.
        std::vector<TenantId> arrivals;
        for (TenantId id : ids)
            for (int k = 0; k < kPerTenant; ++k)
                arrivals.push_back(id);
        for (std::size_t i = arrivals.size(); i > 1; --i)
            std::swap(arrivals[i - 1], arrivals[rng.below(i)]);

        const int kTotal = static_cast<int>(arrivals.size());
        auto checkQuota = [&] {
            for (std::size_t i = 0; i < kTenants; ++i)
                ASSERT_LE(table.tagsHeld(ids[i]), quota[i]);
        };

        auto produce = [&]() -> sim::Task {
            std::uint64_t seq = 0;
            for (TenantId t : arrivals) {
                co_await d.dispatch(r.core, tenantMsg(t, seq++));
                checkQuota();
            }
        };
        int delivered = 0;
        std::vector<int> perTenant(kTenants, 0);
        auto consume = [&]() -> sim::Task {
            while (delivered < kTotal) {
                GioMessage g = co_await gio.recv();
                checkQuota();
                const auto *c = mq.peekTag(g.tag);
                // ASSERT_* returns, which a coroutine cannot do.
                if (c == nullptr || c->tenant < 1) {
                    ADD_FAILURE() << "tag without a tenant record";
                    co_return;
                }
                ++perTenant[c->tenant - 1];
                ++delivered;
                EXPECT_TRUE(mq.tryReleaseTag(g.tag).has_value());
                // The runtime's drain task normally re-pumps on the
                // capacity-freed hook; the rig pumps inline.
                co_await d.pumpTenants(r.core);
            }
        };
        sim::spawn(r.s, produce());
        sim::spawn(r.s, consume());
        r.s.run();

        EXPECT_EQ(delivered, kTotal);
        EXPECT_EQ(d.tenantPending(), 0u);
        for (std::size_t i = 0; i < kTenants; ++i) {
            EXPECT_EQ(perTenant[i], kPerTenant);
            EXPECT_EQ(table.tagsHeld(ids[i]), 0u);
        }
        EXPECT_EQ(d.stats().counterValue("dispatched"),
                  static_cast<std::uint64_t>(kTotal));
    }
}

/** With two backlogged tenants at weights 3:1, the WRR placement
 *  order (= single-ring delivery order) serves them 3:1 inside every
 *  steady-state window; once the heavy tenant drains, the light one
 *  gets the full link (work conservation end-to-end). */
TEST(TenantDispatchProperties, DispatchOrderFollowsWeights)
{
    Rig r;
    TenantConfig tcfg;
    tcfg.autoRegister = false;
    TenantTable table(r.s, tcfg);
    TenantQuota qa;
    qa.weight = 3;
    TenantQuota qb;
    qb.weight = 1;
    TenantId a = table.add(qa);
    TenantId b = table.add(qb);

    SnicMqueueConfig mcfg;
    mcfg.tenants = &table;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, mcfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);
    Dispatcher d("d", DispatchPolicy::RoundRobin, table);
    d.addQueue(&mq);

    constexpr int kPerTenant = 24;
    auto produce = [&]() -> sim::Task {
        for (int k = 0; k < kPerTenant; ++k) {
            co_await d.dispatch(r.core, tenantMsg(a, k));
            co_await d.dispatch(r.core, tenantMsg(b, k));
        }
    };
    std::vector<TenantId> order;
    auto consume = [&]() -> sim::Task {
        // Start after the producer has filled the ring and backlogged
        // BOTH class queues — a consumer that keeps pace with the
        // producer would see plain arrival order (only one message is
        // ever waiting, and work-conserving WRR serves it), which
        // exercises conservation, not weights.
        co_await sim::sleep(1_ms);
        while (order.size() < 2 * kPerTenant) {
            GioMessage g = co_await gio.recv();
            const auto *c = mq.peekTag(g.tag);
            if (c == nullptr) {
                ADD_FAILURE() << "tag without a tenant record";
                co_return;
            }
            order.push_back(c->tenant);
            mq.tryReleaseTag(g.tag);
            co_await d.pumpTenants(r.core);
        }
    };
    sim::spawn(r.s, produce());
    sim::spawn(r.s, consume());
    r.s.run();

    ASSERT_EQ(order.size(), 2u * kPerTenant);
    // Skip the ring-fill prefix placed in plain arrival order before
    // the class queues backlogged; the next 20 services are pure WRR
    // over two backlogged classes: 3:1 within rounding slack.
    int aCount = 0;
    for (std::size_t i = 8; i < 28; ++i)
        aCount += order[i] == a;
    EXPECT_GE(aCount, 13) << "heavy tenant under-served";
    EXPECT_LE(aCount, 17) << "heavy tenant over-served";
    // The tail after the heavy class drains is all light-tenant —
    // weight 1 still gets the whole link when alone (conservation).
    EXPECT_EQ(order.back(), b);
}

/** A weight-8 tenant with no traffic never blocks a weight-1 tenant:
 *  the light tenant's whole backlog is delivered and nothing is left
 *  parked in the class queues. */
TEST(TenantDispatchProperties, WorkConservingWhenOnlyOneTenantHasWork)
{
    Rig r;
    TenantConfig tcfg;
    tcfg.autoRegister = false;
    TenantTable table(r.s, tcfg);
    TenantQuota heavy;
    heavy.weight = 8;
    table.add(heavy); // registered, forever idle
    TenantQuota light;
    light.weight = 1;
    TenantId b = table.add(light);

    SnicMqueueConfig mcfg;
    mcfg.tenants = &table;
    SnicMqueue mq(r.s, "mq", r.qp, r.layout, MqueueKind::Server, mcfg);
    AccelQueue gio(r.s, "gio", r.mem, r.layout);
    Dispatcher d("d", DispatchPolicy::RoundRobin, table);
    d.addQueue(&mq);

    constexpr int kMsgs = 20;
    auto produce = [&]() -> sim::Task {
        for (int k = 0; k < kMsgs; ++k)
            co_await d.dispatch(r.core, tenantMsg(b, k));
    };
    int delivered = 0;
    auto consume = [&]() -> sim::Task {
        while (delivered < kMsgs) {
            GioMessage g = co_await gio.recv();
            const auto *c = mq.peekTag(g.tag);
            if (c == nullptr) {
                ADD_FAILURE() << "tag without a tenant record";
                co_return;
            }
            EXPECT_EQ(c->tenant, b);
            ++delivered;
            mq.tryReleaseTag(g.tag);
            co_await d.pumpTenants(r.core);
        }
    };
    sim::spawn(r.s, produce());
    sim::spawn(r.s, consume());
    r.s.run();

    EXPECT_EQ(delivered, kMsgs);
    EXPECT_EQ(d.tenantPending(), 0u);
}
