/**
 * @file
 * Tests for DeviceMemory (bounds, word helpers, watchpoints) and the
 * PCIe fabric cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pcie/fabric.hh"
#include "pcie/memory.hh"
#include "sim/simulator.hh"
#include "sim/task.hh"

using namespace lynx;
using namespace lynx::sim::literals;

TEST(DeviceMemory, WriteReadRoundTrip)
{
    pcie::DeviceMemory mem("gpu0", 1024);
    std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
    mem.write(100, data);
    std::vector<std::uint8_t> out(5);
    mem.read(100, out);
    EXPECT_EQ(out, data);
}

TEST(DeviceMemory, FreshMemoryIsZeroed)
{
    pcie::DeviceMemory mem("gpu0", 64);
    std::vector<std::uint8_t> out(64);
    mem.read(0, out);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(DeviceMemory, WordHelpersAreLittleEndian)
{
    pcie::DeviceMemory mem("gpu0", 64);
    mem.writeU32(0, 0x01020304u);
    std::uint8_t b[4];
    mem.read(0, b);
    EXPECT_EQ(b[0], 0x04);
    EXPECT_EQ(b[3], 0x01);
    EXPECT_EQ(mem.readU32(0), 0x01020304u);

    mem.writeU64(8, 0x1122334455667788ull);
    EXPECT_EQ(mem.readU64(8), 0x1122334455667788ull);
}

TEST(DeviceMemory, ViewExposesWrittenBytes)
{
    pcie::DeviceMemory mem("gpu0", 32);
    std::vector<std::uint8_t> data{9, 8, 7};
    mem.write(4, data);
    auto v = mem.view(4, 3);
    EXPECT_EQ(v[0], 9);
    EXPECT_EQ(v[2], 7);
}

TEST(DeviceMemoryDeath, OutOfBoundsAccessPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pcie::DeviceMemory mem("gpu0", 16);
    std::vector<std::uint8_t> big(17);
    EXPECT_DEATH(mem.write(0, big), "out of bounds");
    EXPECT_DEATH(mem.write(16, std::vector<std::uint8_t>{1}),
                 "out of bounds");
    std::vector<std::uint8_t> out(1);
    EXPECT_DEATH(mem.read(16, out), "out of bounds");
}

TEST(DeviceMemoryDeath, RangeCheckDoesNotWrapAroundTheAddressSpace)
{
    // off + len wraps to 2 here, which a plain `off + len <= size`
    // check accepts.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    pcie::DeviceMemory mem("gpu0", 16);
    const std::uint64_t off = UINT64_MAX - 1;
    std::vector<std::uint8_t> out(4);
    EXPECT_DEATH(mem.read(off, out), "out of bounds");
    EXPECT_DEATH(mem.write(off, std::vector<std::uint8_t>(4, 0xab)),
                 "out of bounds");
}

TEST(DeviceMemory, WatchpointFiresOnOverlappingWrite)
{
    pcie::DeviceMemory mem("gpu0", 128);
    int hits = 0;
    std::uint64_t lastOff = 0, lastLen = 0;
    mem.watch(10, 4, [&](std::uint64_t off, std::uint64_t len) {
        ++hits;
        lastOff = off;
        lastLen = len;
    });

    mem.write(0, std::vector<std::uint8_t>(10)); // [0,10): no overlap
    EXPECT_EQ(hits, 0);
    mem.write(8, std::vector<std::uint8_t>(4)); // [8,12): overlaps
    EXPECT_EQ(hits, 1);
    EXPECT_EQ(lastOff, 8u);
    EXPECT_EQ(lastLen, 4u);
    mem.write(14, std::vector<std::uint8_t>(4)); // [14,18): next to it
    EXPECT_EQ(hits, 1);
    mem.writeU32(10, 7); // exact
    EXPECT_EQ(hits, 2);
}

TEST(DeviceMemory, UnwatchStopsNotifications)
{
    pcie::DeviceMemory mem("gpu0", 64);
    int hits = 0;
    auto id = mem.watch(0, 64, [&](auto, auto) { ++hits; });
    mem.writeU32(0, 1);
    EXPECT_EQ(hits, 1);
    mem.unwatch(id);
    mem.writeU32(0, 2);
    EXPECT_EQ(hits, 1);
}

TEST(DeviceMemory, WatcherMayRegisterAnotherWatcher)
{
    pcie::DeviceMemory mem("gpu0", 64);
    int hits = 0;
    mem.watch(0, 4, [&](auto, auto) {
        ++hits;
        mem.watch(4, 4, [&](auto, auto) { ++hits; });
    });
    mem.writeU32(0, 1); // fires first watcher, registers second
    EXPECT_EQ(hits, 1);
    mem.writeU32(4, 1);
    EXPECT_GE(hits, 2);
}

TEST(DeviceMemory, WatchBoundsAreExactAtBothEnds)
{
    pcie::DeviceMemory mem("gpu0", 4096);
    int hits = 0;
    mem.watch(100, 16, [&](auto, auto) { ++hits; }); // [100, 116)

    mem.write(96, std::vector<std::uint8_t>(4)); // [96,100): short
    EXPECT_EQ(hits, 0);
    mem.write(97, std::vector<std::uint8_t>(4)); // [97,101): one in
    EXPECT_EQ(hits, 1);
    mem.write(116, std::vector<std::uint8_t>(4)); // [116,120): short
    EXPECT_EQ(hits, 1);
    mem.write(115, std::vector<std::uint8_t>(4)); // [115,119): one in
    EXPECT_EQ(hits, 2);
}

TEST(DeviceMemory, WideWriteFiresWatchersInRegistrationOrder)
{
    // Registered out of address order, and more of them than a
    // doorbell write hits, so the snapshot spills off the stack.
    pcie::DeviceMemory mem("gpu0", 256);
    const std::vector<std::uint64_t> offs{96, 0, 160, 32, 128, 64};
    std::vector<std::uint64_t> fired;
    for (std::uint64_t off : offs)
        mem.watch(off, 32, [&fired, off](auto, auto) {
            fired.push_back(off);
        });
    mem.write(0, std::vector<std::uint8_t>(192));
    EXPECT_EQ(fired, offs);

    fired.clear();
    mem.write(40, std::vector<std::uint8_t>(40)); // [40,80)
    EXPECT_EQ(fired, (std::vector<std::uint64_t>{32, 64}));
}

TEST(DeviceMemory, NotifyFiresASnapshotOfTheHits)
{
    // The first watcher removes the second and adds a third, all over
    // the same bytes: the removed one still fires for this write, the
    // added one does not. The next write sees the new set.
    pcie::DeviceMemory mem("gpu0", 64);
    std::vector<char> fired;
    std::uint64_t second = 0;
    mem.watch(0, 8, [&](auto, auto) {
        fired.push_back('a');
        if (fired.size() == 1) {
            mem.unwatch(second);
            mem.watch(0, 8, [&](auto, auto) { fired.push_back('c'); });
        }
    });
    second = mem.watch(0, 8, [&](auto, auto) { fired.push_back('b'); });

    mem.writeU32(0, 1);
    EXPECT_EQ(fired, (std::vector<char>{'a', 'b'}));
    fired.clear();
    mem.writeU32(0, 2);
    EXPECT_EQ(fired, (std::vector<char>{'a', 'c'}));
}

TEST(DeviceMemory, UnwatchInTheMiddleOfTheIndex)
{
    pcie::DeviceMemory mem("gpu0", 1024);
    std::vector<int> hits(5, 0);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 5; ++i) {
        // The middle watch is the longest: it set the index's search
        // window, which outlives it.
        std::uint64_t len = i == 2 ? 256 : 16;
        ids.push_back(mem.watch(static_cast<std::uint64_t>(i) * 200, len,
                                [&hits, i](auto, auto) { ++hits[i]; }));
    }
    mem.unwatch(ids[2]);
    for (int i = 0; i < 5; ++i)
        mem.writeU32(static_cast<std::uint64_t>(i) * 200 + 12, 1);
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 0, 1, 1}));
    mem.writeU32(500, 1); // inside the removed range only
    EXPECT_EQ(hits, (std::vector<int>{1, 1, 0, 1, 1}));
}

TEST(DeviceMemory, DoorbellAmongManyQueuesFiresOneWatcher)
{
    // The Fig. 6 shape: 240 mqueues, each watched at its RX ring, its
    // txCons word and its TX ring. One doorbell write into one ring
    // must reach exactly that ring's watcher.
    constexpr std::uint64_t kQueues = 240;
    constexpr std::uint64_t kRing = 4096;
    constexpr std::uint64_t kStride = 2 * kRing + 64;
    pcie::DeviceMemory mem("gpu0", kQueues * kStride);
    std::vector<int> hits(3 * kQueues, 0);
    for (std::uint64_t q = 0; q < kQueues; ++q) {
        const std::uint64_t base = q * kStride;
        mem.watch(base, kRing, [&hits, q](auto, auto) { ++hits[3 * q]; });
        mem.watch(base + kRing, 4,
                  [&hits, q](auto, auto) { ++hits[3 * q + 1]; });
        mem.watch(base + kRing + 64, kRing,
                  [&hits, q](auto, auto) { ++hits[3 * q + 2]; });
    }
    for (std::uint64_t q : {0ull, 1ull, 117ull, 239ull}) {
        std::fill(hits.begin(), hits.end(), 0);
        mem.writeU32(q * kStride + kRing - 4, 1); // last RX-ring word
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 1);
        EXPECT_EQ(hits[3 * q], 1);
    }
}

TEST(Fabric, DmaTimeIncludesLatencyAndSerialization)
{
    sim::Simulator s;
    pcie::FabricConfig cfg;
    cfg.dmaLatency = 900_ns;
    cfg.gbps = 50.0;
    pcie::Fabric fab(s, "host0", cfg);
    // 1000 bytes at 50 Gbps = 160 ns.
    EXPECT_EQ(fab.dmaTime(1000), 900_ns + 160_ns);
    EXPECT_EQ(fab.serialization(0), 0u);
}

TEST(Fabric, DmaAwaitsTransferTime)
{
    sim::Simulator s;
    pcie::Fabric fab(s, "host0");
    sim::Tick done = 0;
    auto body = [&]() -> sim::Task {
        co_await fab.dma(1000);
        done = s.now();
    };
    sim::spawn(s, body());
    s.run();
    EXPECT_EQ(done, fab.dmaTime(1000));
}

TEST(Fabric, MmioChargesRoundTrip)
{
    sim::Simulator s;
    pcie::FabricConfig cfg;
    cfg.mmioLatency = 800_ns;
    pcie::Fabric fab(s, "host0", cfg);
    sim::Tick done = 0;
    auto body = [&]() -> sim::Task {
        co_await fab.mmio();
        co_await fab.mmio();
        done = s.now();
    };
    sim::spawn(s, body());
    s.run();
    EXPECT_EQ(done, 1600_ns);
}
