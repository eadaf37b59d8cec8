/**
 * @file
 * Tests for the mqueue layout/codec and the SnicMqueue/AccelQueue
 * pair transporting real bytes over an RDMA QP.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "lynx/gio.hh"
#include "lynx/mqueue.hh"
#include "lynx/snic_mqueue.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using lynx::core::AccelQueue;
using lynx::core::ClientRef;
using lynx::core::MqueueKind;
using lynx::core::MqueueLayout;
using lynx::core::SlotMeta;
using lynx::core::SnicMqueue;

namespace {

std::vector<std::uint8_t>
bytes(std::initializer_list<int> xs)
{
    std::vector<std::uint8_t> v;
    for (int x : xs)
        v.push_back(static_cast<std::uint8_t>(x));
    return v;
}

struct Rig
{
    sim::Simulator s;
    pcie::DeviceMemory mem{"accel.mem", 1 << 20};
    rdma::QueuePair qp{s, "qp", mem, rdma::RdmaPathModel{}};
    sim::Core core{s, "snic.0"};
    MqueueLayout layout{0, 8, 256};
};

} // namespace

TEST(MqueueLayout, GeometryIsConsistent)
{
    MqueueLayout l{1024, 16, 2048};
    EXPECT_EQ(l.maxPayload(), 2048u - 16u);
    EXPECT_EQ(l.rxSlot(0), 1024u);
    EXPECT_EQ(l.rxSlot(16), 1024u); // wraps
    EXPECT_EQ(l.rxSlot(17), 1024u + 2048u);
    EXPECT_EQ(l.txSlot(0), 1024u + 16u * 2048u);
    EXPECT_EQ(l.rxDoorbell(0), l.rxSlotEnd(0) - 4);
    EXPECT_EQ(l.rxConsOff(), 1024u + 2u * 16u * 2048u);
    EXPECT_EQ(l.txConsOff(), l.rxConsOff() + 4);
    EXPECT_EQ(l.totalBytes(), 2u * 16u * 2048u + 8u);
    EXPECT_EQ(l.ringBytes(), 16u * 2048u);
    EXPECT_EQ(l.txRingOff(), 1024u + 16u * 2048u);
}

TEST(MqueueCodec, RoundTripThroughMemory)
{
    pcie::DeviceMemory mem("m", 4096);
    MqueueLayout l{0, 4, 512};
    auto payload = bytes({1, 2, 3, 4, 5, 6, 7});
    SlotMeta meta{7, 42, 0, 1};
    auto buf = core::encodeSlotWrite(payload, meta);
    EXPECT_EQ(buf.size(), 7u + SlotMeta::bytes);

    std::uint64_t slotEnd = l.rxSlotEnd(0);
    mem.write(core::slotWriteOffset(slotEnd, 7), buf);

    SlotMeta got = core::readSlotMeta(mem, slotEnd);
    EXPECT_EQ(got.len, 7u);
    EXPECT_EQ(got.tag, 42u);
    EXPECT_EQ(got.err, 0u);
    EXPECT_EQ(got.seq, 1u);
    EXPECT_EQ(core::readSlotPayload(mem, slotEnd, got), payload);
}

TEST(MqueueCodec, DoorbellBytesAreLastInTheWrite)
{
    auto payload = bytes({9, 9});
    SlotMeta meta{2, 0, 0, 0x0a0b0c0d};
    auto buf = core::encodeSlotWrite(payload, meta);
    // Last four bytes of the contiguous write are the doorbell.
    ASSERT_EQ(buf.size(), 18u);
    EXPECT_EQ(buf[14], 0x0d);
    EXPECT_EQ(buf[17], 0x0a);
}

TEST(MqueueCodec, ParseFromSnapshotBuffer)
{
    auto payload = bytes({5, 4, 3});
    SlotMeta meta{3, 7, 1, 9};
    auto written = core::encodeSlotWrite(payload, meta);
    std::vector<std::uint8_t> slot(128, 0);
    std::copy(written.begin(), written.end(),
              slot.end() - static_cast<long>(written.size()));
    SlotMeta got = core::parseSlotMeta(slot);
    EXPECT_EQ(got.len, 3u);
    EXPECT_EQ(got.tag, 7u);
    EXPECT_EQ(got.err, 1u);
    EXPECT_EQ(got.seq, 9u);
    EXPECT_EQ(core::parseSlotPayload(slot, got), payload);
}

TEST(SnicAccelQueue, RxPushReachesAccelRecv)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    AccelQueue accelQ(r.s, "gio0", r.mem, r.layout);

    core::GioMessage got;
    auto accelTask = [&]() -> sim::Task { got = co_await accelQ.recv(); };
    auto snicTask = [&]() -> sim::Task {
        auto p = bytes({10, 20, 30});
        bool ok = co_await snicQ.rxPush(r.core, p, 5);
        EXPECT_TRUE(ok);
    };
    sim::spawn(r.s, accelTask());
    sim::spawn(r.s, snicTask());
    r.s.run();
    EXPECT_EQ(got.payload, bytes({10, 20, 30}));
    EXPECT_EQ(got.tag, 5u);
    EXPECT_EQ(got.err, 0u);
}

/**
 * A repaired-gap skip slot ahead of a real message: a one-message
 * receive consumes the marker with one poll and one consumer-register
 * write, and no copy step (a zero-length sleep would still cost an
 * event), then receives the message. Time and event count are the
 * unbatched seed's, for recv() and recvBatch(1) alike.
 */
TEST(SnicAccelQueue, SkipSlotCostsNoCopyStep)
{
    for (bool viaBatch : {false, true}) {
        Rig r;
        AccelQueue accelQ(r.s, "gio0", r.mem, r.layout);
        auto put = [&](std::uint64_t slot, std::span<const std::uint8_t> p,
                       std::uint32_t err) {
            SlotMeta meta{static_cast<std::uint32_t>(p.size()), 7, err,
                          static_cast<std::uint32_t>(slot + 1)};
            std::uint64_t end = r.layout.rxSlotEnd(slot);
            r.mem.write(core::slotWriteOffset(end, meta.len),
                        core::encodeSlotWrite(p, meta));
        };
        put(0, {}, core::kSlotSkipErr);
        auto payload = bytes({1, 2, 3, 4, 5, 6, 7, 8});
        put(1, payload, 0);

        core::GioMessage got;
        sim::Tick at = 0;
        auto accelTask = [&]() -> sim::Task {
            if (viaBatch) {
                std::vector<core::GioMessage> out;
                co_await accelQ.recvBatch(1, out);
                got = std::move(out.at(0));
            } else {
                got = co_await accelQ.recv();
            }
            at = r.s.now();
        };
        sim::spawn(r.s, accelTask());
        r.s.run();
        EXPECT_EQ(got.payload, payload) << "viaBatch " << viaBatch;
        EXPECT_EQ(accelQ.stats().counterValue("rx_skipped"), 1u);
        // Two polls and two register writes of 200 ns, plus the
        // 8-byte copy (1 tick); five events, none of them zero-length.
        EXPECT_EQ(at, 801u) << "viaBatch " << viaBatch;
        EXPECT_EQ(r.s.eventsExecuted(), 5u) << "viaBatch " << viaBatch;
    }
}

TEST(SnicAccelQueue, AccelSendReachesForwarderPoll)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    AccelQueue accelQ(r.s, "gio0", r.mem, r.layout);

    bool woke = false;
    snicQ.setTxActivityHandler([&] { woke = true; });

    std::vector<core::TxMessage> got;
    auto accelTask = [&]() -> sim::Task {
        auto p = bytes({1, 1, 2, 3, 5});
        co_await accelQ.send(9, p);
    };
    sim::spawn(r.s, accelTask());
    r.s.run();
    EXPECT_TRUE(woke);

    auto snicTask = [&]() -> sim::Task {
        co_await snicQ.pollTxBatch(r.core, 1, got);
    };
    sim::spawn(r.s, snicTask());
    r.s.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload, bytes({1, 1, 2, 3, 5}));
    EXPECT_EQ(got[0].tag, 9u);
}

TEST(SnicAccelQueue, PollOnEmptyTxReturnsNothing)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    std::vector<core::TxMessage> got;
    bool polled = false;
    auto snicTask = [&]() -> sim::Task {
        co_await snicQ.pollTxBatch(r.core, 1, got);
        polled = true;
    };
    sim::spawn(r.s, snicTask());
    r.s.run();
    EXPECT_TRUE(polled);
    EXPECT_TRUE(got.empty());
}

TEST(SnicAccelQueue, ManyMessagesWrapTheRingInOrder)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    AccelQueue accelQ(r.s, "gio0", r.mem, r.layout);

    const int total = 50; // ring has 8 slots: multiple laps
    std::vector<std::uint32_t> seen;
    auto accelTask = [&]() -> sim::Task {
        for (int i = 0; i < total; ++i) {
            auto m = co_await accelQ.recv();
            EXPECT_EQ(m.payload.size(), 4u);
            seen.push_back(m.payload[0] |
                           (static_cast<std::uint32_t>(m.payload[1]) << 8));
        }
    };
    auto snicTask = [&]() -> sim::Task {
        for (int i = 0; i < total; ++i) {
            std::vector<std::uint8_t> p{
                static_cast<std::uint8_t>(i),
                static_cast<std::uint8_t>(i >> 8), 0, 0};
            // Push may momentarily see a full ring; retry as the
            // dispatcher would for a client queue.
            for (;;) {
                bool ok = co_await snicQ.rxPush(r.core, p, 0);
                if (ok)
                    break;
                co_await sim::sleep(1_us);
            }
        }
    };
    sim::spawn(r.s, accelTask());
    sim::spawn(r.s, snicTask());
    r.s.run();
    ASSERT_EQ(seen.size(), static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i)
        EXPECT_EQ(seen[i], static_cast<std::uint32_t>(i));
}

TEST(SnicAccelQueue, RxFullDropsWhenAccelStalled)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    // No accelerator consuming: ring (8 slots) must fill and report.
    int accepted = 0, rejected = 0;
    auto snicTask = [&]() -> sim::Task {
        for (int i = 0; i < 12; ++i) {
            std::vector<std::uint8_t> one(1, 1);
            bool ok = co_await snicQ.rxPush(r.core, one, 0);
            (ok ? accepted : rejected)++;
        }
    };
    sim::spawn(r.s, snicTask());
    r.s.run();
    EXPECT_EQ(accepted, 8);
    EXPECT_EQ(rejected, 4);
    EXPECT_EQ(snicQ.stats().counterValue("rx_full"), 4u);
}

TEST(SnicAccelQueue, TxBackpressureBlocksAccelUntilCommit)
{
    Rig r;
    SnicMqueue snicQ(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    AccelQueue accelQ(r.s, "gio0", r.mem, r.layout);

    int sent = 0;
    auto accelTask = [&]() -> sim::Task {
        for (int i = 0; i < 10; ++i) { // ring holds 8
            std::vector<std::uint8_t> seven(1, 7);
            co_await accelQ.send(0, seven);
            ++sent;
        }
    };
    sim::spawn(r.s, accelTask());
    r.s.run();
    EXPECT_EQ(sent, 8);
    EXPECT_GE(accelQ.stats().counterValue("tx_stalls"), 1u);

    // SNIC drains two and returns credit; the accel finishes.
    auto snicTask = [&]() -> sim::Task {
        std::vector<core::TxMessage> popped;
        co_await snicQ.pollTxBatch(r.core, 1, popped);
        co_await snicQ.pollTxBatch(r.core, 1, popped);
        co_await snicQ.commitTxCons(r.core);
    };
    sim::spawn(r.s, snicTask());
    r.s.run();
    EXPECT_EQ(sent, 10);
}

TEST(SnicAccelQueue, WriteBarrierModeDeliversCorrectlyAndSlower)
{
    Rig r;
    core::SnicMqueueConfig fast;
    core::SnicMqueueConfig barrier;
    barrier.rxWrite = core::RxWrite::Barrier;

    MqueueLayout l2{r.layout.totalBytes() + 64, 8, 256};
    SnicMqueue fastQ(r.s, "fast", r.qp, r.layout, MqueueKind::Server, fast);
    SnicMqueue slowQ(r.s, "slow", r.qp, l2, MqueueKind::Server, barrier);
    AccelQueue fastA(r.s, "gioF", r.mem, r.layout);
    AccelQueue slowA(r.s, "gioS", r.mem, l2);

    sim::Tick fastAt = 0, slowAt = 0;
    auto recvFast = [&]() -> sim::Task {
        (void)co_await fastA.recv();
        fastAt = r.s.now();
    };
    auto recvSlow = [&]() -> sim::Task {
        (void)co_await slowA.recv();
        slowAt = r.s.now();
    };
    std::vector<std::uint8_t> twoBytes{1, 2};
    auto push = [&]() -> sim::Task {
        co_await fastQ.rxPush(r.core, twoBytes, 0);
    };
    auto push2 = [&]() -> sim::Task {
        co_await slowQ.rxPush(r.core, twoBytes, 0);
    };
    sim::spawn(r.s, recvFast());
    sim::spawn(r.s, recvSlow());
    sim::spawn(r.s, push());
    sim::spawn(r.s, push2());
    r.s.run();
    EXPECT_GT(fastAt, 0u);
    EXPECT_GT(slowAt, 0u);
    // The 3-op barrier sequence costs several microseconds extra
    // (§5.1 quotes ~5 us on their hardware).
    EXPECT_GT(slowAt, fastAt + 2_us);
}

TEST(SnicMqueue, TagTableRoundTrip)
{
    Rig r;
    SnicMqueue q(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    ClientRef c;
    c.addr = net::Address{3, 555};
    c.proto = net::Protocol::Udp;
    c.seq = 77;
    c.sentAt = 123;
    auto tag = q.allocTag(c);
    ASSERT_TRUE(tag.has_value());
    ClientRef got = q.releaseTag(*tag);
    EXPECT_EQ(got.addr, c.addr);
    EXPECT_EQ(got.seq, 77u);
    EXPECT_EQ(got.sentAt, 123u);
}

TEST(SnicMqueue, TagTableExhaustionReturnsNothing)
{
    Rig r;
    SnicMqueue q(r.s, "mq0", r.qp, r.layout, MqueueKind::Server);
    ClientRef c;
    std::vector<std::uint32_t> tags;
    for (std::uint32_t i = 0; i < r.layout.slots * 2; ++i) {
        auto t = q.allocTag(c);
        ASSERT_TRUE(t.has_value());
        tags.push_back(*t);
    }
    EXPECT_FALSE(q.allocTag(c).has_value());
    q.releaseTag(tags.front());
    EXPECT_TRUE(q.allocTag(c).has_value());
}

TEST(SnicMqueue, PendingFifoOrdersWithDeadlines)
{
    Rig r;
    SnicMqueue q(r.s, "cq0", r.qp, r.layout, MqueueKind::Client);
    EXPECT_FALSE(q.hasPending());
    q.notePending(3, 100_us);
    q.notePending(1, 200_us);
    q.notePending(2, 300_us);
    EXPECT_TRUE(q.hasPending());
    ASSERT_NE(q.oldestPending(), nullptr);
    EXPECT_EQ(q.oldestPending()->tag, 3u);
    EXPECT_EQ(q.oldestPending()->deadline, 100_us);
    EXPECT_EQ(q.popPending()->tag, 3u);
    EXPECT_EQ(q.popPending()->tag, 1u);
    EXPECT_EQ(q.popPending()->tag, 2u);
    EXPECT_FALSE(q.popPending().has_value());
    EXPECT_EQ(q.oldestPending(), nullptr);
}

TEST(SnicMqueue, PendingActivityGateOpensOnNote)
{
    Rig r;
    SnicMqueue q(r.s, "cq0", r.qp, r.layout, MqueueKind::Client);
    q.pendingActivity().close();
    EXPECT_FALSE(q.pendingActivity().isOpen());
    q.notePending(1, 1_ms);
    EXPECT_TRUE(q.pendingActivity().isOpen());
}
