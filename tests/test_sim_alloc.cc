/**
 * @file
 * Allocation-count harness: proves the steady-state event hot path is
 * heap-allocation-free, so the alloc-free property of the engine
 * overhaul (event calendar + EventFn + pooled payloads + pooled frames)
 * cannot silently regress.
 *
 * The global operator new/delete are replaced with counting wrappers.
 * An echo scenario (client NIC <-> echo server over the fabric) is
 * warmed up until every pool, ring and calendar array has its capacity,
 * then a measured window of round trips runs with the allocation
 * counter snapshotted on both sides. Steady state must perform ZERO
 * heap allocations — per event, per message, per coroutine frame.
 *
 * In the sanitizer lane the slab pool deliberately passes every
 * allocation through to the system allocator (LYNX_POOL_PASSTHROUGH),
 * so the zero-alloc assertion is skipped there.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "lynx/dispatcher.hh"
#include "lynx/gio.hh"
#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/message.hh"
#include "net/network.hh"
#include "net/nic.hh"
#include "net/payload.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/event.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"
#include "sim/trace.hh"
#include "workload/loadgen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

std::uint64_t g_allocCount = 0;

/** In the sanitizer lane the pool passes every allocation through to
 *  the system allocator by design, so the zero-allocation checks are
 *  skipped there; their bodies still compile. */
#if defined(LYNX_POOL_PASSTHROUGH)
constexpr bool kPoolPassthrough = true;
#else
constexpr bool kPoolPassthrough = false;
#endif

} // namespace

// Counting wrappers around the global allocator. All variants must be
// covered: the engine uses both plain and aligned forms. The delete
// forms are kept out of line: inlined into a caller, they would show
// the compiler std::free() applied to a pointer it saw come from
// operator new (-Wmismatched-new-delete), not knowing that the
// replacement operator new is malloc underneath.
void *
operator new(std::size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void *
operator new(std::size_t n, std::align_val_t align)
{
    ++g_allocCount;
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (n + static_cast<std::size_t>(align) -
                                      1) &
                                         ~(static_cast<std::size_t>(align) -
                                           1)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

/** Round-trip counts: warmup fills pools/rings, window is measured. */
constexpr int kWarmupRounds = 256;
constexpr int kMeasuredRounds = 512;

struct EchoProbe
{
    std::uint64_t allocsAtWindowStart = 0;
    std::uint64_t allocsAtWindowEnd = 0;
    int completed = 0;
};

sim::Task
echoServer(net::Nic &nic, std::uint16_t port)
{
    net::Endpoint &ep = nic.bind(net::Protocol::Udp, port);
    for (;;) {
        net::Message m = co_await ep.recv();
        net::Address from = m.src;
        m.src = m.dst;
        m.dst = from;
        co_await nic.send(std::move(m));
    }
}

sim::Task
echoClient(net::Nic &nic, net::Address target, EchoProbe &probe,
           const std::vector<std::uint8_t> &request)
{
    net::Endpoint &ep = nic.bind(net::Protocol::Udp, 9001);
    for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
        if (i == kWarmupRounds)
            probe.allocsAtWindowStart = g_allocCount;
        net::Message m;
        m.src = {nic.node(), 9001};
        m.dst = target;
        m.payload = request; // copies into a recycled pool block
        m.seq = static_cast<std::uint64_t>(i);
        co_await nic.send(std::move(m));
        net::Message r = co_await ep.recv();
        if (r.payload.size() == request.size())
            ++probe.completed;
    }
    probe.allocsAtWindowEnd = g_allocCount;
}

TEST(AllocFreeHotPath, SteadyStateEchoEventLoopDoesNotAllocate)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane: every allocation is "
                        "routed to the system allocator by design";
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    net::Nic &server = network.addNic("server");

    EchoProbe probe;
    const std::vector<std::uint8_t> request(64, 0x42);
    sim::spawn(s, echoServer(server, 7));
    sim::spawn(s, echoClient(client, {server.node(), 7}, probe, request));
    s.run();

    EXPECT_EQ(probe.completed, kWarmupRounds + kMeasuredRounds);
    EXPECT_EQ(probe.allocsAtWindowEnd - probe.allocsAtWindowStart, 0u)
        << "steady-state echo hot path allocated "
        << (probe.allocsAtWindowEnd - probe.allocsAtWindowStart)
        << " times over " << kMeasuredRounds << " round trips";
}

/** The closed-loop client of the load generator and the backend
 *  listener: recvTimeout() with a deadline far beyond the round trip,
 *  plus a doorbell write into a watched ring among many, per round. */
sim::Task
timedEchoClient(sim::Simulator &s, net::Nic &nic, net::Address target,
                pcie::DeviceMemory &mem, EchoProbe &probe,
                const std::vector<std::uint8_t> &request)
{
    net::Endpoint &ep = nic.bind(net::Protocol::Udp, 9002);
    for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
        if (i == kWarmupRounds)
            probe.allocsAtWindowStart = g_allocCount;
        net::Message m;
        m.src = {nic.node(), 9002};
        m.dst = target;
        m.payload = request;
        m.seq = static_cast<std::uint64_t>(i);
        co_await nic.send(std::move(m));
        mem.writeU32(static_cast<std::uint64_t>(i % 64) * 256, 1);
        auto r = co_await workload::recvTimeout(s, ep, 1_ms);
        if (r && r->payload.size() == request.size())
            ++probe.completed;
    }
    probe.allocsAtWindowEnd = g_allocCount;
}

TEST(AllocFreeHotPath, SteadyStateTimedEchoAndDoorbellDoNotAllocate)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    sim::Simulator s;
    net::Network network(s);
    net::Nic &client = network.addNic("client");
    net::Nic &server = network.addNic("server");
    pcie::DeviceMemory mem("gpu0", 64 * 256);
    int doorbells = 0;
    for (std::uint64_t q = 0; q < 64; ++q)
        mem.watch(q * 256, 128, [&doorbells](auto, auto) { ++doorbells; });

    EchoProbe probe;
    const std::vector<std::uint8_t> request(64, 0x42);
    sim::spawn(s, echoServer(server, 7));
    sim::spawn(s, timedEchoClient(s, client, {server.node(), 7}, mem,
                                  probe, request));
    s.run();

    EXPECT_EQ(probe.completed, kWarmupRounds + kMeasuredRounds);
    EXPECT_EQ(doorbells, kWarmupRounds + kMeasuredRounds);
    EXPECT_EQ(probe.allocsAtWindowEnd - probe.allocsAtWindowStart, 0u)
        << "steady-state recvTimeout + doorbell path allocated "
        << (probe.allocsAtWindowEnd - probe.allocsAtWindowStart)
        << " times over " << kMeasuredRounds << " round trips";
}

/** SNIC side of the ring round trip: push one request, poll the TX
 *  ring one slot at a time (the forwarder at maxBatch 1) until the
 *  answer is back, return its credit. */
sim::Task
ringClient(core::SnicMqueue &mq, sim::Core &core, EchoProbe &probe,
           const std::vector<std::uint8_t> &request)
{
    std::vector<core::TxMessage> popped;
    for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
        if (i == kWarmupRounds)
            probe.allocsAtWindowStart = g_allocCount;
        while (!co_await mq.rxPush(core, request,
                                   static_cast<std::uint32_t>(i)))
            co_await sim::sleep(1_us);
        popped.clear();
        while (popped.empty()) {
            co_await mq.pollTxBatch(core, 1, popped);
            if (popped.empty())
                co_await sim::sleep(1_us);
        }
        co_await mq.commitTxCons(core);
        if (popped[0].payload.size() == request.size())
            ++probe.completed;
    }
    probe.allocsAtWindowEnd = g_allocCount;
}

/** The unbatched accelerator echo loop: recv() then send(). */
sim::Task
gioEchoOneByOne(core::AccelQueue &q)
{
    for (;;) {
        core::GioMessage m = co_await q.recv();
        co_await q.send(m.tag, m.payload);
    }
}

/** The services' serve loop at maxBatch 1: recvBatch(1) then a
 *  one-item sendBatch, both into reused vectors. */
sim::Task
gioEchoBatchesOfOne(core::AccelQueue &q)
{
    std::vector<core::GioMessage> msgs;
    std::vector<core::GioTxItem> items;
    for (;;) {
        msgs.clear();
        co_await q.recvBatch(1, msgs);
        items.clear();
        for (const core::GioMessage &m : msgs)
            items.push_back({m.tag, m.payload, 0});
        co_await q.sendBatch(items);
    }
}

/**
 * Unbatched traffic runs through the batched ring paths as batches of
 * one, and those paths must add no heap allocation per message. A
 * round trip allocates the five buffers that carry its bytes: the
 * encoded RX push, the accelerator's copy of the request payload,
 * the encoded TX slot write, the SNIC's copy of the response payload
 * and the txCons register write. Engine-side growth adds well under
 * one more per trip; one batch vector or record list per call would
 * push the total past six.
 */
TEST(AllocFreeHotPath, UnbatchedRingRoundTripAllocatesOnlyItsBuffers)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    for (bool batchesOfOne : {false, true}) {
        sim::Simulator s;
        pcie::DeviceMemory mem("accel.mem", 1 << 20);
        rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
        sim::Core core(s, "snic.0");
        core::MqueueLayout layout{0, 16, 256};
        core::SnicMqueue mq(s, "mq", qp, layout, core::MqueueKind::Server);
        core::AccelQueue gio(s, "gio", mem, layout);

        EchoProbe probe;
        const std::vector<std::uint8_t> request(64, 0x42);
        sim::spawn(s, batchesOfOne ? gioEchoBatchesOfOne(gio)
                                   : gioEchoOneByOne(gio));
        sim::spawn(s, ringClient(mq, core, probe, request));
        s.run();

        EXPECT_EQ(probe.completed, kWarmupRounds + kMeasuredRounds);
        EXPECT_LE(probe.allocsAtWindowEnd - probe.allocsAtWindowStart,
                  6u * kMeasuredRounds)
            << (batchesOfOne ? "recvBatch(1)/sendBatch" : "recv/send")
            << " round trips allocated "
            << (probe.allocsAtWindowEnd - probe.allocsAtWindowStart)
            << " times over " << kMeasuredRounds;
    }
}

TEST(AllocFreeHotPath, HotEventShapesFitInline)
{
    // The two delivery lambdas the NIC/network hot path schedules: a
    // by-value Message plus one pointer. If Message outgrows the
    // inline buffer these become per-event pool trips.
    net::Network *net = nullptr;
    net::Nic *dst = nullptr;
    net::Message m;
    auto routeFn = [net, mm = std::move(m)]() mutable { (void)net; };
    net::Message m2;
    auto deliverFn = [dst, mm = std::move(m2)]() mutable { (void)dst; };
    static_assert(sim::EventFn::fitsInline<decltype(routeFn)>);
    static_assert(sim::EventFn::fitsInline<decltype(deliverFn)>);
    static_assert(sizeof(net::Message) == 64);
    SUCCEED();
}

/** With every trace category off, a LYNX_TRACE call is one inline
 *  load and branch: it builds no category string (this one is past
 *  the small-string buffer), formats nothing and allocates nothing. */
TEST(AllocFreeHotPath, DisabledTraceAllocatesNothing)
{
    sim::TraceControl::reset();
    if (sim::TraceControl::anyEnabled())
        GTEST_SKIP() << "LYNX_TRACE is set in the environment";
    sim::Simulator s;
    const std::uint64_t before = g_allocCount;
    for (int i = 0; i < 1000; ++i) {
        LYNX_TRACE(s, "a-category-longer-than-the-sso-buffer", "seq ",
                   i, " of ", 1000);
    }
    EXPECT_EQ(g_allocCount - before, 0u)
        << "a disabled LYNX_TRACE allocated";
}

/** The per-message tenant accounting path — admission, ring-tag
 *  quota notes, WRR picks and generation-checked finishes — must
 *  never build a `tenant.<id>.*` metric name or touch the registry:
 *  every handle is resolved once at registration (lynx/tenant.hh).
 *  Registration itself may allocate; the cycle after warmup must
 *  not. */
TEST(AllocFreeHotPath, TenantAccountingHotPathDoesNotAllocate)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    sim::Simulator s;
    core::TenantConfig cfg;
    cfg.autoRegister = false;
    core::TenantTable table(s, cfg);
    core::TenantQuota q;
    q.weight = 3;
    q.maxInFlight = 8;
    q.mqueueQuota = 4;
    core::TenantId a = table.add(q);
    core::TenantId b = table.add();
    core::WrrPicker wrr;

    auto cycle = [&] {
        table.admit(a);
        table.admit(b);
        table.noteTagAlloc(a);
        (void)table.belowTagQuota(a);
        table.noteTagRelease(a);
        wrr.pick(2, [&](std::size_t i) {
            return table.weight(static_cast<core::TenantId>(i + 1));
        });
        table.finish(a, table.generation(a), 3_us);
        table.finish(b, table.generation(b), 3_us);
    };
    for (int i = 0; i < 64; ++i) // fill histogram buckets, WRR credit
        cycle();
    const std::uint64_t before = g_allocCount;
    for (int i = 0; i < 512; ++i)
        cycle();
    EXPECT_EQ(g_allocCount - before, 0u)
        << "tenant accounting hot path allocated "
        << (g_allocCount - before) << " times over 512 cycles";
}

/** Allocations in the measured window of @p kMeasuredRounds serial
 *  requests on one ring, each consumed by the accelerator: pushed
 *  through a Dispatcher as default-VF traffic, or claimed and pushed
 *  bare (allocTag + rxPush of the same payload). */
std::uint64_t
ringPushWindowAllocs(bool viaDispatcher)
{
    sim::Simulator s;
    pcie::DeviceMemory mem("accel.mem", 1 << 20);
    rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
    sim::Core core(s, "snic.0");
    core::TenantTable table(s, {});
    core::SnicMqueueConfig mcfg;
    mcfg.tenants = &table;
    core::MqueueLayout layout{0, 16, 256};
    core::SnicMqueue mq(s, "mq", qp, layout, core::MqueueKind::Server,
                        mcfg);
    core::AccelQueue gio(s, "gio", mem, layout);
    core::Dispatcher d("d", core::DispatchPolicy::RoundRobin, table);
    d.addQueue(&mq);

    EchoProbe probe;
    const std::vector<std::uint8_t> request(64, 0x42);
    auto loop = [&]() -> sim::Task {
        for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
            if (i == kWarmupRounds)
                probe.allocsAtWindowStart = g_allocCount;
            net::Message m;
            m.src = {3, 40000};
            m.dst = {1, 7000};
            m.payload = request;
            if (viaDispatcher) {
                co_await d.dispatch(core, std::move(m));
            } else {
                auto tag = mq.allocTag(core::ClientRef{}, m.payload);
                co_await mq.rxPush(core, m.payload, *tag);
            }
            core::GioMessage g = co_await gio.recv();
            std::optional<core::ClientRef> c = mq.tryReleaseTag(g.tag);
            if (c && viaDispatcher)
                table.finish(c->tenant, c->tenantGen, 1_us);
            if (c && g.payload.size() == request.size())
                ++probe.completed;
        }
        probe.allocsAtWindowEnd = g_allocCount;
    };
    sim::spawn(s, loop());
    s.run();
    EXPECT_EQ(probe.completed, kWarmupRounds + kMeasuredRounds);
    return probe.allocsAtWindowEnd - probe.allocsAtWindowStart;
}

/** Default-VF traffic is placed on arrival: in steady state a
 *  dispatch (admission, ledger, tag, push) allocates no more per
 *  message than a bare allocTag + rxPush of the same payload, so no
 *  class-queue node or other per-request record is created. */
TEST(AllocFreeHotPath, DefaultTenantDispatchAddsNoAllocation)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    const std::uint64_t bare = ringPushWindowAllocs(false);
    const std::uint64_t dispatched = ringPushWindowAllocs(true);
    EXPECT_LE(dispatched, bare)
        << "default-VF dispatch allocated " << dispatched
        << " times over " << kMeasuredRounds << " requests, a bare "
        << "push " << bare;
}

TEST(AllocFreeHotPath, ClosureBlocksAreReusedInSteadyState)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    // 300 closure chains, each link rescheduling the next at zero
    // delay or in the future. Once the pool, the heap and the ready
    // ring have grown to the chains' width, fired closures' blocks
    // are reused and scheduling allocates nothing.
    sim::Simulator s;
    constexpr int kChains = 300;
    constexpr std::uint64_t kWarmup = 50'000;
    constexpr std::uint64_t kMeasured = 200'000;
    struct Link
    {
        static void
        arm(sim::Simulator &s, std::uint64_t n, std::uint64_t budget)
        {
            if (n >= budget)
                return;
            s.scheduleIn(n % 3 == 0 ? 0 : 1 + n % 97,
                         [&s, n, budget] { arm(s, n + kChains, budget); });
        }
    };
    for (std::uint64_t i = 0; i < kChains; ++i)
        Link::arm(s, i, kWarmup);
    s.run();
    const std::uint64_t allocsAtWindowStart = g_allocCount;
    for (std::uint64_t i = 0; i < kChains; ++i)
        Link::arm(s, kWarmup + i, kWarmup + kMeasured);
    s.run();
    EXPECT_EQ(s.eventsExecuted(), kWarmup + kMeasured);
    EXPECT_EQ(g_allocCount - allocsAtWindowStart, 0u)
        << "steady closure scheduling allocated "
        << (g_allocCount - allocsAtWindowStart) << " times";
}

/** A short-lived spawned task: one timed wait, then done. */
sim::Task
shortTask(int &finished)
{
    co_await sim::sleep(1);
    ++finished;
}

/** Spawns one short task per step and drops its join handle. */
sim::Task
spawner(sim::Simulator &s, EchoProbe &probe, int &finished)
{
    for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
        if (i == kWarmupRounds)
            probe.allocsAtWindowStart = g_allocCount;
        sim::spawn(s, shortTask(finished));
        co_await sim::sleep(2);
    }
    probe.allocsAtWindowEnd = g_allocCount;
}

TEST(AllocFreeHotPath, SteadyStateSpawnDoesNotAllocate)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    // A spawned Task's frame and its join state both come from the
    // Pool, so spawning (the baseline server's per-request handler,
    // the mqueue credit prefetch) allocates nothing once warm.
    sim::Simulator s;
    EchoProbe probe;
    int finished = 0;
    sim::spawn(s, spawner(s, probe, finished));
    s.run();
    EXPECT_EQ(finished, kWarmupRounds + kMeasuredRounds);
    EXPECT_EQ(probe.allocsAtWindowEnd - probe.allocsAtWindowStart, 0u)
        << "steady-state spawn allocated "
        << (probe.allocsAtWindowEnd - probe.allocsAtWindowStart)
        << " times over " << kMeasuredRounds << " tasks";
}

/** Reads four bytes over @p qp per round, checking the value. */
sim::Task
reader(rdma::QueuePair &qp, EchoProbe &probe)
{
    std::array<std::uint8_t, 4> word{};
    for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
        if (i == kWarmupRounds)
            probe.allocsAtWindowStart = g_allocCount;
        if (co_await qp.read(64, word) == rdma::WcStatus::Ok &&
            word == std::array<std::uint8_t, 4>{1, 2, 3, 4})
            ++probe.completed;
    }
    probe.allocsAtWindowEnd = g_allocCount;
}

TEST(AllocFreeHotPath, SteadyStateQueuePairReadDoesNotAllocate)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    // The read's snapshot, shared by the op and its delivery closure,
    // lives in the Pool: a small read (the credit prefetch's
    // readRxCons) allocates nothing once warm.
    sim::Simulator s;
    pcie::DeviceMemory mem("accel.mem", 4096);
    const std::array<std::uint8_t, 4> value{1, 2, 3, 4};
    mem.write(64, value);
    rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
    EchoProbe probe;
    sim::spawn(s, reader(qp, probe));
    s.run();
    EXPECT_EQ(probe.completed, kWarmupRounds + kMeasuredRounds);
    EXPECT_EQ(probe.allocsAtWindowEnd - probe.allocsAtWindowStart, 0u)
        << "steady-state 4-byte QueuePair::read allocated "
        << (probe.allocsAtWindowEnd - probe.allocsAtWindowStart)
        << " times over " << kMeasuredRounds << " reads";
}

TEST(AllocFreeHotPath, PoolRecyclesBlocks)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    sim::Pool &pool = sim::Pool::instance();
    void *a = pool.allocate(100);
    pool.deallocate(a);
    const std::uint64_t hitsBefore = pool.stats().freelistHits;
    void *b = pool.allocate(100); // same class: must reuse the block
    EXPECT_EQ(b, a);
    EXPECT_EQ(pool.stats().freelistHits, hitsBefore + 1);
    pool.deallocate(b);

    // Oversize requests pass through but stay header-tagged.
    void *big = pool.allocate(sim::Pool::kMaxBlockSize + 1);
    ASSERT_NE(big, nullptr);
    pool.deallocate(big);
}

TEST(AllocFreeHotPath, PayloadReusesItsBlockAcrossAssignments)
{
    if (kPoolPassthrough)
        GTEST_SKIP() << "pool passthrough lane";
    const std::vector<std::uint8_t> small(40, 1);
    net::Payload p;
    p = small;
    const std::uint8_t *block = p.data();
    for (int i = 0; i < 16; ++i) {
        p = small; // same size class: no pool churn, same block
        EXPECT_EQ(p.data(), block);
    }
    net::Payload moved = std::move(p);
    EXPECT_EQ(moved.data(), block);
    EXPECT_EQ(moved.size(), small.size());
}

TEST(AllocFreeHotPath, PayloadSemanticsMatchVector)
{
    net::Payload p{1, 2, 3};
    EXPECT_EQ(p.size(), 3u);
    EXPECT_EQ(p[2], 3);

    net::Payload copy = p;
    EXPECT_EQ(copy, p);
    copy.push_back(4);
    EXPECT_NE(copy, p);
    EXPECT_EQ(copy.at(3), 4);

    const std::vector<std::uint8_t> v{1, 2, 3};
    EXPECT_EQ(p, v);
    EXPECT_EQ(v, p);

    p.resize(5);
    EXPECT_EQ(p.size(), 5u);
    EXPECT_EQ(p[4], 0); // resize zero-fills

    std::vector<std::uint8_t> tail{9, 9};
    p.insert(p.end(), tail.begin(), tail.end());
    EXPECT_EQ(p.size(), 7u);
    EXPECT_EQ(p[6], 9);

    p.assign(tail.begin(), tail.end());
    EXPECT_EQ(p, tail);

    EXPECT_EQ(p.toVector(), tail);

    std::span<const std::uint8_t> view = p;
    EXPECT_EQ(view.size(), 2u);
    EXPECT_EQ(view[0], 9);
}

} // namespace
