/**
 * @file
 * Runtime decisions that are derived from one source, pinned:
 *
 *  - ring PFC comes from the congestion plane of the network the
 *    Runtime's NIC is attached to;
 *  - an mqueue's retry policy is what makes its tag table retain
 *    payloads and its forwarder tolerate stale tags, and a Runtime
 *    whose mqueues have one runs a health monitor per service;
 *  - the forwarder's discovery delay is one band,
 *    clamp(idle/2, pollBackoffMin, pollBackoffMax), where equal ends
 *    are a fixed delay.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/dispatcher.hh"
#include "lynx/forwarder.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

/** RX-ring counters of one flooded mqueue. */
struct RingCounts
{
    std::uint64_t pushed, pauses, stormBreaks, overflow;
};

/**
 * A Runtime with one 4-slot server mqueue whose accelerator never
 * consumes, flooded with @p n requests: every push past the fourth
 * finds the ring full.
 */
RingCounts
floodUnconsumedRing(const net::CongestionConfig &cc, int n)
{
    sim::Simulator s;
    net::NetworkConfig ncfg;
    ncfg.congestion = cc;
    net::Network nw(s, ncfg);
    net::Nic &snicNic = nw.addNic("snic");
    net::Nic &clientNic = nw.addNic("client");
    sim::CorePool cores(s, "snic.arm", 2);
    pcie::DeviceMemory mem("gpu0.mem", 1 << 20);

    core::RuntimeConfig cfg;
    cfg.cores = {&cores[0], &cores[1]};
    cfg.nic = &snicNic;
    cfg.stack = calibration::vmaXeon();
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu0", mem, rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    scfg.ringSlots = 4;
    scfg.slotBytes = 256;
    rt.addService(scfg);
    (void)accel;
    rt.start();

    auto client = [&]() -> sim::Task {
        for (int i = 0; i < n; ++i) {
            net::Message m;
            m.src = {clientNic.node(), 40000};
            m.dst = {snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>(32, 7);
            m.seq = static_cast<std::uint64_t>(i);
            co_await clientNic.send(std::move(m));
        }
    };
    sim::spawn(s, client());
    s.run();
    const sim::StatSet &st = rt.mqueues().front()->stats();
    return {st.counterValue("rx_pushed"), st.counterValue("pfc_pauses"),
            st.counterValue("pfc_storm_breaks"),
            st.counterValue("overflow")};
}

/** One server mqueue on a bare QP, plus its accelerator-side view. */
struct QueueRig
{
    sim::Simulator s;
    net::Network nw{s};
    net::Nic &nic = nw.addNic("snic");
    pcie::DeviceMemory mem{"gpu0.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    core::MqueueLayout layout{0, 8, 256};
    std::unique_ptr<core::SnicMqueue> mq;

    explicit QueueRig(bool retry)
    {
        core::SnicMqueueConfig mcfg;
        mcfg.retry.maxRetries = retry ? 4 : 0;
        mq = std::make_unique<core::SnicMqueue>(
            s, "mq", qp, layout, core::MqueueKind::Server, mcfg);
    }
};

/**
 * Have the accelerator answer tag @p tag, which the mqueue never
 * allocated, and run the forwarder over it.
 * @return the forwarder's stale_responses count.
 */
std::uint64_t
answerUnknownTag(bool retry, std::uint32_t tag)
{
    QueueRig r(retry);
    core::TenantTable table(r.s, {});
    core::Forwarder fwd(r.s, "fwd", r.core, r.nic, {}, {}, table,
                        core::ForwarderConfig{});
    fwd.addQueue(r.mq.get(), 7000);
    fwd.start();
    core::AccelQueue gio(r.s, "gio", r.mem, r.layout);
    auto accel = [&]() -> sim::Task {
        std::vector<std::uint8_t> resp{1, 2, 3};
        co_await gio.send(tag, resp);
    };
    sim::spawn(r.s, accel());
    r.s.run();
    return fwd.stats().counterValue("stale_responses");
}

} // namespace

TEST(RingPfcFromNetwork, CongestedPfcNetworkPausesAFullRing)
{
    net::CongestionConfig cc;
    cc.enabled = true;
    cc.pfc.enabled = true;
    RingCounts c = floodUnconsumedRing(cc, 8);
    EXPECT_EQ(c.pushed, 4u);
    EXPECT_GT(c.pauses, 0u);
    // Nobody drains, so every pause ends in the storm guard.
    EXPECT_GT(c.stormBreaks, 0u);
    EXPECT_EQ(c.overflow, 4u);
}

TEST(RingPfcFromNetwork, CongestionOffNeverPausesEvenWithPfcEnabled)
{
    net::CongestionConfig cc;
    cc.enabled = false;
    cc.pfc.enabled = true;
    RingCounts c = floodUnconsumedRing(cc, 8);
    EXPECT_EQ(c.pushed, 4u);
    EXPECT_EQ(c.pauses, 0u);
    EXPECT_EQ(c.overflow, 4u);
}

TEST(RingPfcFromNetwork, RuntimeRejectsRingPfcSetOnTheQueueConfig)
{
    sim::Simulator s;
    net::Network nw(s);
    sim::Core core(s, "snic.0");
    core::RuntimeConfig cfg;
    cfg.cores = {&core};
    cfg.nic = &nw.addNic("snic");
    cfg.mq.pfc.enabled = true;
    EXPECT_DEATH({ core::Runtime rt(s, cfg); },
                 "ring PFC is configured on the network");
}

TEST(StaleTag, UnknownTagWithoutRetryPolicyAborts)
{
    EXPECT_DEATH(answerUnknownTag(/*retry=*/false, 5),
                 "response with unknown tag 5");
}

TEST(StaleTag, UnknownTagWithRetryPolicyIsCountedStale)
{
    EXPECT_EQ(answerUnknownTag(/*retry=*/true, 5), 1u);
}

TEST(PayloadRetention, DispatcherKeepsACopyIffTheQueueHasARetryPolicy)
{
    const std::vector<std::uint8_t> payload{9, 8, 7, 6, 5};
    for (bool retry : {false, true}) {
        QueueRig r(retry);
        EXPECT_EQ(r.mq->hasRetryPolicy(), retry);
        core::TenantTable table(r.s, {});
        core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, table);
        d.addQueue(r.mq.get());
        auto driver = [&]() -> sim::Task {
            net::Message m;
            m.src = {1, 40000};
            m.dst = {r.nic.node(), 7000};
            m.payload = payload;
            co_await d.dispatch(r.core, std::move(m));
        };
        sim::spawn(r.s, driver());
        r.s.run();

        std::vector<std::uint32_t> tags = r.mq->allocatedTags();
        ASSERT_EQ(tags.size(), 1u);
        const core::ClientRef *c = r.mq->peekTag(tags[0]);
        ASSERT_NE(c, nullptr);
        EXPECT_EQ(c->payload,
                  retry ? payload : std::vector<std::uint8_t>{})
            << "retry policy " << retry;
    }
}

namespace {

/** @return how many health monitors a started two-service Runtime
 *  runs with retry policy @p retry on its mqueues. */
std::size_t
monitorsWithRetryPolicy(const rdma::RdmaRetryPolicy &retry)
{
    sim::Simulator s;
    net::Network nw(s);
    sim::Core core(s, "snic.0");
    pcie::DeviceMemory mem("gpu0.mem", 1 << 20);
    core::RuntimeConfig cfg;
    cfg.cores = {&core};
    cfg.nic = &nw.addNic("snic");
    cfg.mq.retry = retry;
    core::Runtime rt(s, cfg);
    rt.addAccelerator("gpu0", mem, rdma::RdmaPathModel{});
    for (std::uint16_t port : {7000, 7001}) {
        core::ServiceConfig scfg;
        scfg.name = "svc" + std::to_string(port);
        scfg.port = port;
        rt.addService(scfg);
    }
    rt.start();
    return rt.monitors().size();
}

} // namespace

TEST(FailoverFromRetryPolicy, RetryPolicyRunsOneMonitorPerService)
{
    EXPECT_EQ(monitorsWithRetryPolicy(calibration::rdmaSwRetryPolicy()),
              2u);
}

TEST(FailoverFromRetryPolicy, NoRetryPolicyRunsNoMonitor)
{
    EXPECT_EQ(monitorsWithRetryPolicy({}), 0u);
}

TEST(DiscoveryBand, EqualEndsGiveTheFixedDelayForAnyIdleTime)
{
    core::ForwarderConfig fixed;
    fixed.pollBackoffMin = 777;
    fixed.pollBackoffMax = 777;
    // The default band is the platforms' fixed discovery delay.
    const core::ForwarderConfig dflt;
    for (sim::Tick idle :
         {sim::Tick{0}, sim::Tick{1}, sim::Tick{776}, sim::Tick{1553},
          sim::Tick{1554}, sim::Tick{1555}, sim::Tick{2000}, 1_ms, 1_s,
          std::numeric_limits<sim::Tick>::max()}) {
        EXPECT_EQ(core::discoveryDelay(fixed, idle), 777u) << idle;
        EXPECT_EQ(core::discoveryDelay(dflt, idle),
                  calibration::snicPollDiscovery)
            << idle;
    }
}

TEST(DiscoveryBand, AdaptiveBandClampsHalfTheIdleTime)
{
    core::ForwarderConfig band;
    band.pollBackoffMin = calibration::snicPollBackoffMin;
    band.pollBackoffMax = calibration::snicPollBackoffMax;
    EXPECT_EQ(core::discoveryDelay(band, 0), band.pollBackoffMin);
    EXPECT_EQ(core::discoveryDelay(band, 2 * band.pollBackoffMin + 600),
              band.pollBackoffMin + 300);
    EXPECT_EQ(core::discoveryDelay(band, 1_ms), band.pollBackoffMax);
}

TEST(DiscoveryBand, InvertedBandAborts)
{
    QueueRig r(false);
    core::ForwarderConfig inverted;
    inverted.pollBackoffMin = 1001;
    inverted.pollBackoffMax = 1000;
    EXPECT_DEATH(
        {
            core::TenantTable table(r.s, {});
            core::Forwarder fwd(r.s, "fwd", r.core, r.nic, {}, {}, table,
                                inverted);
        },
        "inverted discovery band");
}
