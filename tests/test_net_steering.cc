/**
 * @file
 * Flow steering tests: the Toeplitz RSS hash against Microsoft's
 * published known-answer vectors, the indirection-table steering
 * policy, consistent-hash ring properties, and the dispatcher's
 * DispatchPolicy::Rss + admission-control integration.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/dispatcher.hh"
#include "lynx/gio.hh"
#include "lynx/runtime.hh"
#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/network.hh"
#include "net/steering.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using namespace lynx::net::steer;

namespace {

/** One row of Microsoft's "Verifying the RSS Hash Calculation"
 *  IPv4 suite (src/dst as dotted-quad words, ports host-order). */
struct RssVector
{
    std::uint32_t dstAddr;
    std::uint16_t dstPort;
    std::uint32_t srcAddr;
    std::uint16_t srcPort;
    std::uint32_t hash2; // addresses only
    std::uint32_t hash4; // with ports
};

constexpr std::uint32_t
ip(int a, int b, int c, int d)
{
    return (static_cast<std::uint32_t>(a) << 24) |
           (static_cast<std::uint32_t>(b) << 16) |
           (static_cast<std::uint32_t>(c) << 8) |
           static_cast<std::uint32_t>(d);
}

const RssVector kVectors[] = {
    {ip(161, 142, 100, 80), 1766, ip(66, 9, 149, 187), 2794,
     0x323e8fc2, 0x51ccc178},
    {ip(65, 69, 140, 83), 4739, ip(199, 92, 111, 2), 14230,
     0xd718262a, 0xc626b0ea},
    {ip(12, 22, 207, 184), 38024, ip(24, 19, 198, 95), 12898,
     0xd2d0a5de, 0x5c2b394a},
    {ip(209, 142, 163, 6), 2217, ip(38, 27, 205, 30), 48228,
     0x82989176, 0xafc7327f},
    {ip(202, 188, 127, 2), 1303, ip(153, 39, 163, 191), 44251,
     0x5d1809c5, 0x10e828a2},
};

} // namespace

TEST(Toeplitz, MatchesMicrosoftKnownAnswerVectors4Tuple)
{
    for (const RssVector &v : kVectors) {
        EXPECT_EQ(rssHash(v.srcAddr, v.srcPort, v.dstAddr, v.dstPort),
                  v.hash4)
            << "src " << std::hex << v.srcAddr;
    }
}

TEST(Toeplitz, MatchesMicrosoftKnownAnswerVectors2Tuple)
{
    for (const RssVector &v : kVectors) {
        EXPECT_EQ(rssHash2(v.srcAddr, v.dstAddr), v.hash2)
            << "src " << std::hex << v.srcAddr;
    }
}

TEST(Toeplitz, HashDependsOnEveryTupleField)
{
    std::uint32_t base = rssHash(10, 1000, 20, 7000);
    EXPECT_NE(rssHash(11, 1000, 20, 7000), base);
    EXPECT_NE(rssHash(10, 1001, 20, 7000), base);
    EXPECT_NE(rssHash(10, 1000, 21, 7000), base);
    EXPECT_NE(rssHash(10, 1000, 20, 7001), base);
}

TEST(RssSteering, DeterministicAndInRange)
{
    RssSteering st;
    for (std::uint16_t port = 1; port < 200; ++port) {
        net::Address src{3, port};
        net::Address dst{1, 7000};
        std::size_t q = st.pick(src, dst, 4);
        EXPECT_LT(q, 4u);
        EXPECT_EQ(st.pick(src, dst, 4), q); // stable per flow
    }
}

TEST(RssSteering, SpreadsFlowsAcrossQueues)
{
    RssSteering st;
    std::vector<int> hits(8, 0);
    for (std::uint16_t port = 40000; port < 40512; ++port)
        ++hits[st.pick({3, port}, {1, 7000}, 8)];
    for (int h : hits) {
        // 512 flows over 8 queues: each queue should see a healthy
        // share (binomial tails put this far from zero).
        EXPECT_GT(h, 20);
        EXPECT_LT(h, 512 - 20 * 7);
    }
}

TEST(ConsistentHashRing, BalancesKeysAcrossMembers)
{
    ConsistentHashRing ring;
    for (std::uint64_t m = 1; m <= 4; ++m)
        ring.add(m);
    std::map<std::uint64_t, int> perMember;
    const int keys = 40000;
    for (int k = 0; k < keys; ++k)
        ++perMember[ring.route(static_cast<std::uint64_t>(k))];
    ASSERT_EQ(perMember.size(), 4u);
    for (const auto &[m, n] : perMember) {
        // Within a 2x band of the fair share — virtual nodes keep the
        // arcs from degenerating.
        EXPECT_GT(n, keys / 8) << "member " << m;
        EXPECT_LT(n, keys / 2) << "member " << m;
    }
}

TEST(ConsistentHashRing, RemovalMovesOnlyTheDepartedArc)
{
    ConsistentHashRing ring;
    for (std::uint64_t m = 1; m <= 4; ++m)
        ring.add(m);
    const int keys = 20000;
    std::vector<std::uint64_t> before;
    for (int k = 0; k < keys; ++k)
        before.push_back(ring.route(static_cast<std::uint64_t>(k)));
    ring.remove(3);
    EXPECT_EQ(ring.size(), 3u);
    for (int k = 0; k < keys; ++k) {
        std::uint64_t now = ring.route(static_cast<std::uint64_t>(k));
        EXPECT_NE(now, 3u);
        if (before[static_cast<std::size_t>(k)] != 3) {
            EXPECT_EQ(now, before[static_cast<std::size_t>(k)])
                << "key " << k << " moved although its member stayed";
        }
    }
}

TEST(ConsistentHashRing, RouteIsIndependentOfInsertionOrder)
{
    ConsistentHashRing a, b;
    for (std::uint64_t m : {1ull, 2ull, 3ull})
        a.add(m);
    for (std::uint64_t m : {3ull, 1ull, 2ull})
        b.add(m);
    for (int k = 0; k < 5000; ++k)
        EXPECT_EQ(a.route(static_cast<std::uint64_t>(k)),
                  b.route(static_cast<std::uint64_t>(k)));
}

namespace {

/** A complete single-machine Lynx deployment with one accelerator. */
struct Deployment
{
    sim::Simulator s;
    net::Network nw{s};
    net::Nic &snicNic = nw.addNic("snic");
    net::Nic &clientNic = nw.addNic("client");
    sim::CorePool snicCores{s, "snic.arm", 7};
    pcie::DeviceMemory accelMem{"gpu0.mem", 4 << 20};
    std::unique_ptr<core::Runtime> rt;

    explicit Deployment(core::RuntimeConfig cfg = {})
    {
        for (std::size_t i = 0; i < snicCores.size(); ++i)
            cfg.cores.push_back(&snicCores[i]);
        cfg.nic = &snicNic;
        cfg.stack = calibration::vmaXeon();
        cfg.listenersPerService = 2;
        rt = std::make_unique<core::Runtime>(s, cfg);
    }
};

/** Echo worker that records which queue served which request (the
 *  flow and index ride in the first two payload bytes — gio strips
 *  the transport metadata). */
sim::Task
recordingWorker(core::AccelQueue &q, std::size_t qi,
                std::map<std::uint64_t, std::size_t> &servedBy)
{
    for (;;) {
        core::GioMessage m = co_await q.recv();
        std::uint64_t key =
            static_cast<std::uint64_t>(m.payload.at(0)) * 1000 +
            m.payload.at(1);
        servedBy[key] = qi;
        co_await q.send(m.tag, m.payload);
    }
}

/** Unknown tenant ids refused (no auto-registration). */
core::TenantConfig
explicitTenants()
{
    core::TenantConfig c;
    c.autoRegister = false;
    return c;
}

} // namespace

TEST(RssDispatch, FlowsKeepTheirHardwarePredictedQueue)
{
    Deployment d;
    auto &accel = d.rt->addAccelerator("gpu0", d.accelMem,
                                       rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    scfg.policy = core::DispatchPolicy::Rss;
    auto &svc = d.rt->addService(scfg);
    auto queues = d.rt->makeAccelQueues(svc, accel);
    std::map<std::uint64_t, std::size_t> servedBy;
    for (std::size_t i = 0; i < queues.size(); ++i)
        sim::spawn(d.s, recordingWorker(*queues[i], i, servedBy));
    d.rt->start();

    const int flows = 8;
    const int perFlow = 5;
    std::vector<net::Endpoint *> eps;
    for (int f = 0; f < flows; ++f)
        eps.push_back(&d.clientNic.bind(
            net::Protocol::Udp,
            static_cast<std::uint16_t>(40000 + f)));
    auto client = [&](int f) -> sim::Task {
        for (int i = 0; i < perFlow; ++i) {
            net::Message m;
            m.src = {d.clientNic.node(),
                     static_cast<std::uint16_t>(40000 + f)};
            m.dst = {d.snicNic.node(), 7000};
            m.proto = net::Protocol::Udp;
            std::vector<std::uint8_t> payload(32, 0x5a);
            payload[0] = static_cast<std::uint8_t>(f);
            payload[1] = static_cast<std::uint8_t>(i);
            m.payload = std::move(payload);
            m.seq = static_cast<std::uint64_t>(f) * 1000 + i;
            m.sentAt = d.s.now();
            co_await d.clientNic.send(std::move(m));
            co_await eps[static_cast<std::size_t>(f)]->recv();
        }
    };
    for (int f = 0; f < flows; ++f)
        sim::spawn(d.s, client(f));
    d.s.run();

    ASSERT_EQ(servedBy.size(),
              static_cast<std::size_t>(flows * perFlow));
    RssSteering reference;
    std::set<std::size_t> used;
    for (int f = 0; f < flows; ++f) {
        std::size_t expect = reference.pick(
            {d.clientNic.node(),
             static_cast<std::uint16_t>(40000 + f)},
            {d.snicNic.node(), 7000}, 4);
        for (int i = 0; i < perFlow; ++i) {
            std::uint64_t seq =
                static_cast<std::uint64_t>(f) * 1000 + i;
            ASSERT_TRUE(servedBy.count(seq));
            // Every message of a flow lands on the queue the real
            // Toeplitz+indirection hardware would pick.
            EXPECT_EQ(servedBy[seq], expect) << "flow " << f;
        }
        used.insert(expect);
    }
    // And the hash actually spreads these flows.
    EXPECT_GE(used.size(), 2u);
    EXPECT_EQ(svc.dispatcher().steerStats().counterValue("rss_picks"),
              static_cast<std::uint64_t>(flows * perFlow));
    EXPECT_EQ(
        svc.dispatcher().steerStats().counterValue("rss_fallbacks"),
        0u);
}

TEST(RssDispatch, DeadHomeQueueFallsBackAndIsCounted)
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};

    core::TenantTable table(s, {});
    core::Dispatcher disp("rss.dispatch", core::DispatchPolicy::Rss,
                          table);
    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;
    for (int q = 0; q < 4; ++q) {
        core::MqueueLayout layout{
            static_cast<std::uint64_t>(q) * 8192, 8, 256};
        mqs.push_back(std::make_unique<core::SnicMqueue>(
            s, "mq" + std::to_string(q), qp, layout,
            core::MqueueKind::Server, core::SnicMqueueConfig{}));
        disp.addQueue(mqs.back().get());
    }

    net::Message m;
    m.src = {3, 41234};
    m.dst = {1, 7000};
    m.proto = net::Protocol::Udp;
    m.payload = std::vector<std::uint8_t>(16, 1);

    RssSteering reference;
    std::size_t home = reference.pick(m.src, m.dst, 4);
    disp.setQueueDead(home, true);

    auto driver = [&]() -> sim::Task {
        net::Message copy = m;
        co_await disp.dispatch(core, std::move(copy));
    };
    sim::spawn(s, driver());
    s.run();

    // The home queue is excluded; its linear-probe neighbour takes
    // the flow, and the detour is visible in the fallback counter.
    EXPECT_EQ(mqs[home]->tagsInFlight(), 0u);
    EXPECT_EQ(mqs[(home + 1) % 4]->tagsInFlight(), 1u);
    EXPECT_EQ(disp.steerStats().counterValue("rss_picks"), 1u);
    EXPECT_EQ(disp.steerStats().counterValue("rss_fallbacks"), 1u);
}

TEST(Admission, ShedsAtConfiguredOccupancyAndCountsEveryReject)
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};

    core::DispatcherConfig dcfg;
    dcfg.admission.enabled = true;
    dcfg.admission.shedOccupancy = 0.25;
    core::TenantTable table(s, {});
    core::Dispatcher disp("adm.dispatch",
                          core::DispatchPolicy::RoundRobin, table, dcfg);
    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;
    for (int q = 0; q < 2; ++q) {
        // 4 ring slots -> 8 tag-table entries per queue: capacity 16.
        core::MqueueLayout layout{
            static_cast<std::uint64_t>(q) * 8192, 4, 256};
        mqs.push_back(std::make_unique<core::SnicMqueue>(
            s, "mq" + std::to_string(q), qp, layout,
            core::MqueueKind::Server, core::SnicMqueueConfig{}));
        disp.addQueue(mqs.back().get());
    }

    const int arrivals = 10;
    auto driver = [&]() -> sim::Task {
        for (int i = 0; i < arrivals; ++i) {
            net::Message m;
            m.src = {3, static_cast<std::uint16_t>(40000 + i)};
            m.dst = {1, 7000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>(16, 1);
            m.seq = static_cast<std::uint64_t>(i);
            co_await disp.dispatch(core, std::move(m));
        }
    };
    sim::spawn(s, driver());
    s.run();

    // Nothing consumes the rings, so in-flight tags only grow:
    // 16 tag entries * 0.25 = 4 admits, then every arrival sheds.
    std::uint64_t admitted =
        disp.admissionStats().counterValue("admitted");
    std::uint64_t shed =
        disp.admissionStats().counterValue("shed_ring_full");
    EXPECT_EQ(admitted, 4u);
    EXPECT_EQ(shed, static_cast<std::uint64_t>(arrivals) - admitted);
    EXPECT_EQ(mqs[0]->tagsInFlight() + mqs[1]->tagsInFlight(), 4u);
}

TEST(Admission, DisabledLeavesTheSeedPathUntouched)
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};

    core::TenantTable table(s, {});
    core::Dispatcher disp("off.dispatch",
                          core::DispatchPolicy::RoundRobin, table);
    core::MqueueLayout layout{0, 4, 256};
    core::SnicMqueue mq(s, "mq0", qp, layout, core::MqueueKind::Server,
                        core::SnicMqueueConfig{});
    disp.addQueue(&mq);

    auto driver = [&]() -> sim::Task {
        for (int i = 0; i < 6; ++i) {
            net::Message m;
            m.src = {3, 40000};
            m.dst = {1, 7000};
            m.proto = net::Protocol::Udp;
            m.payload = std::vector<std::uint8_t>(16, 1);
            co_await disp.dispatch(core, std::move(m));
        }
    };
    sim::spawn(s, driver());
    s.run();

    EXPECT_EQ(disp.admissionStats().counterValue("admitted"), 0u);
    EXPECT_EQ(disp.admissionStats().counterValue("shed_ring_full"),
              0u);
    EXPECT_EQ(mq.tagsInFlight(), 4u); // ring-capacity pushes landed
}

/** Tenanted traffic is steered by the same flow tuple as untenanted
 *  traffic: an RSS dispatcher with a TenantTable places a tenant's
 *  request on the queue the hardware hash of (src, dst) selects,
 *  even before any untenanted message has passed through. */
TEST(RssDispatch, TenantedFlowLandsOnItsHardwarePredictedQueue)
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    core::TenantTable table(
        s, explicitTenants());
    core::TenantId tenant = table.add();

    core::Dispatcher disp("rss.dispatch", core::DispatchPolicy::Rss,
                          table);
    core::SnicMqueueConfig mcfg;
    mcfg.tenants = &table;
    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;
    for (int q = 0; q < 4; ++q) {
        core::MqueueLayout layout{
            static_cast<std::uint64_t>(q) * 8192, 8, 256};
        mqs.push_back(std::make_unique<core::SnicMqueue>(
            s, "mq" + std::to_string(q), qp, layout,
            core::MqueueKind::Server, mcfg));
        disp.addQueue(mqs.back().get());
    }

    // A flow whose queue depends on the destination half of the
    // tuple, so hashing a blank destination would misplace it.
    RssSteering reference;
    net::Message m;
    m.dst = {1, 7000};
    m.proto = net::Protocol::Udp;
    m.payload = std::vector<std::uint8_t>(16, 1);
    m.tenant = tenant;
    std::uint16_t port = 41000;
    for (; port < 42000; ++port) {
        m.src = {3, port};
        if (reference.pick(m.src, m.dst, 4) !=
            reference.pick(m.src, {}, 4))
            break;
    }
    ASSERT_LT(port, 42000);
    std::size_t expect = reference.pick(m.src, m.dst, 4);

    auto driver = [&]() -> sim::Task {
        co_await disp.dispatch(core, std::move(m));
    };
    sim::spawn(s, driver());
    s.run();

    for (std::size_t q = 0; q < 4; ++q)
        EXPECT_EQ(mqs[q]->tagsInFlight(), q == expect ? 1u : 0u)
            << "queue " << q;
    EXPECT_EQ(disp.steerStats().counterValue("rss_picks"), 1u);
}
