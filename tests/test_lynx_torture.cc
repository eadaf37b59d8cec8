/**
 * @file
 * Torture test of the mqueue transport: many mqueues share one RC QP
 * (the paper's one-QP-per-accelerator design, §5.1) while both sides
 * pump randomized traffic with random think times. Asserts byte-exact
 * delivery, per-queue FIFO, and credit/ring-state convergence.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "lynx/gio.hh"
#include "lynx/snic_mqueue.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;
using core::AccelQueue;
using core::MqueueKind;
using core::MqueueLayout;
using core::SnicMqueue;

namespace {

std::vector<std::uint8_t>
stampedPayload(std::uint32_t queue, std::uint32_t n, std::size_t len,
               sim::Rng &rng)
{
    std::vector<std::uint8_t> p(std::max<std::size_t>(len, 8));
    for (auto &b : p)
        b = static_cast<std::uint8_t>(rng.below(256));
    p[0] = static_cast<std::uint8_t>(queue);
    p[1] = static_cast<std::uint8_t>(queue >> 8);
    p[2] = static_cast<std::uint8_t>(n);
    p[3] = static_cast<std::uint8_t>(n >> 8);
    p[4] = static_cast<std::uint8_t>(n >> 16);
    p[5] = static_cast<std::uint8_t>(n >> 24);
    return p;
}

struct Stamp
{
    std::uint32_t queue;
    std::uint32_t n;
};

Stamp
readStamp(const std::vector<std::uint8_t> &p)
{
    Stamp s;
    s.queue = p[0] | (static_cast<std::uint32_t>(p[1]) << 8);
    s.n = p[2] | (static_cast<std::uint32_t>(p[3]) << 8) |
          (static_cast<std::uint32_t>(p[4]) << 16) |
          (static_cast<std::uint32_t>(p[5]) << 24);
    return s;
}

} // namespace

class MqueueTorture : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(MqueueTorture, DuplexRandomTrafficOverOneQp)
{
    const std::uint64_t seed = GetParam();
    sim::Simulator s;
    pcie::DeviceMemory mem("accel.mem", 8 << 20);
    rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
    sim::CorePool cores(s, "snic", 3);
    sim::Rng geometry(seed);

    const int nQueues = 6;
    const int perQueue = 120;

    struct QueuePairs
    {
        std::unique_ptr<SnicMqueue> snic;
        std::unique_ptr<AccelQueue> accel;
        MqueueLayout layout;
    };
    std::vector<QueuePairs> queues;
    std::uint64_t base = 0;
    for (int i = 0; i < nQueues; ++i) {
        MqueueLayout l{base,
                       static_cast<std::uint32_t>(
                           2 + geometry.below(14)), // 2..15 slots
                       256};
        base += l.totalBytes() + 64;
        QueuePairs q;
        q.layout = l;
        q.snic = std::make_unique<SnicMqueue>(
            s, "mq" + std::to_string(i), qp, l, MqueueKind::Server);
        q.accel = std::make_unique<AccelQueue>(
            s, "gio" + std::to_string(i), mem, l);
        queues.push_back(std::move(q));
    }

    // SNIC -> accel direction: a pusher per queue with random sizes
    // and pacing; the accel side echoes back into the TX ring; a
    // SNIC-side drainer validates order and bytes.
    std::map<std::uint32_t, std::vector<std::vector<std::uint8_t>>>
        sentByQueue;
    int drained = 0;

    auto pusher = [&](int qi) -> sim::Task {
        sim::Rng rng(seed * 1000003 + static_cast<std::uint64_t>(qi));
        auto &q = queues[static_cast<std::size_t>(qi)];
        for (std::uint32_t n = 0; n < perQueue; ++n) {
            auto payload = stampedPayload(
                static_cast<std::uint32_t>(qi), n,
                8 + rng.below(q.layout.maxPayload() - 8), rng);
            sentByQueue[static_cast<std::uint32_t>(qi)].push_back(
                payload);
            for (;;) {
                bool ok = co_await q.snic->rxPush(
                    cores[static_cast<std::size_t>(qi) % 3], payload,
                    n % (q.layout.slots * 2));
                if (ok)
                    break;
                co_await sim::sleep(rng.between(1, 20) * 1_us);
            }
            if (rng.chance(0.4))
                co_await sim::sleep(rng.between(1, 50) * 1_us);
        }
    };
    auto echoer = [&](int qi) -> sim::Task {
        sim::Rng rng(seed * 7 + static_cast<std::uint64_t>(qi));
        auto &q = queues[static_cast<std::size_t>(qi)];
        for (int n = 0; n < perQueue; ++n) {
            core::GioMessage m = co_await q.accel->recv();
            if (rng.chance(0.3))
                co_await sim::sleep(rng.between(1, 30) * 1_us);
            co_await q.accel->send(m.tag, m.payload);
        }
    };
    auto drainer = [&](int qi) -> sim::Task {
        auto &q = queues[static_cast<std::size_t>(qi)];
        std::uint32_t expect = 0;
        std::vector<core::TxMessage> popped;
        while (expect < perQueue) {
            popped.clear();
            co_await q.snic->pollTxBatch(
                cores[static_cast<std::size_t>(qi) % 3], 1, popped);
            if (popped.empty()) {
                co_await sim::sleep(5_us);
                continue;
            }
            const core::TxMessage *txm = &popped[0];
            Stamp st = readStamp(txm->payload);
            EXPECT_EQ(st.queue, static_cast<std::uint32_t>(qi));
            EXPECT_EQ(st.n, expect); // per-queue FIFO end to end
            EXPECT_EQ(txm->payload,
                      sentByQueue[static_cast<std::uint32_t>(qi)]
                                 [expect]);
            ++expect;
            ++drained;
            if (q.snic->txCommitPending())
                co_await q.snic->commitTxCons(
                    cores[static_cast<std::size_t>(qi) % 3]);
        }
    };
    for (int qi = 0; qi < nQueues; ++qi) {
        sim::spawn(s, pusher(qi));
        sim::spawn(s, echoer(qi));
        sim::spawn(s, drainer(qi));
    }
    s.run();

    EXPECT_EQ(drained, nQueues * perQueue);
    for (auto &q : queues) {
        EXPECT_EQ(q.snic->stats().counterValue("rx_pushed"),
                  static_cast<std::uint64_t>(perQueue));
        EXPECT_EQ(q.snic->stats().counterValue("tx_popped"),
                  static_cast<std::uint64_t>(perQueue));
        EXPECT_EQ(q.accel->stats().counterValue("rx_msgs"),
                  static_cast<std::uint64_t>(perQueue));
        EXPECT_EQ(q.accel->stats().counterValue("tx_msgs"),
                  static_cast<std::uint64_t>(perQueue));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MqueueTorture,
                         ::testing::Values(3, 17, 1999, 777777));
