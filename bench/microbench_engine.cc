/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine and the
 * compute kernels: these bound how much simulated traffic the
 * reproduction can push per wall-clock second, and how expensive the
 * real application compute (LeNet/LBP/AES) is.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <queue>

#include "common.hh"

#include "apps/aes.hh"
#include "apps/lbp.hh"
#include "apps/lenet.hh"
#include "lynx/mqueue.hh"
#include "pcie/memory.hh"
#include "rdma/qp.hh"
#include "sim/channel.hh"
#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "workload/datagen.hh"

using namespace lynx;
using namespace lynx::sim::literals;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            s.schedule(static_cast<sim::Tick>(i), [&] { ++sink; });
        s.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CoroutineSleepLoop(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        auto body = [&]() -> sim::Task {
            for (int i = 0; i < 1000; ++i)
                co_await sim::sleep(1_us);
        };
        sim::spawn(s, body());
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepLoop);

void
BM_ChannelPingPong(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        sim::Channel<int> a(s), b(s);
        auto left = [&]() -> sim::Task {
            for (int i = 0; i < 500; ++i) {
                co_await a.push(i);
                (void)co_await b.pop();
            }
        };
        auto right = [&]() -> sim::Task {
            for (int i = 0; i < 500; ++i) {
                int v = co_await a.pop();
                co_await b.push(v);
            }
        };
        sim::spawn(s, left());
        sim::spawn(s, right());
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ChannelPingPong);

void
BM_HistogramRecord(benchmark::State &state)
{
    sim::Histogram h;
    sim::Rng rng(1);
    for (auto _ : state)
        h.record(rng.below(10'000'000));
    benchmark::DoNotOptimize(h.count());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

/** The per-message stats pattern the model code moved away from: a
 *  string-keyed map lookup on every event. */
void
BM_StatCounterLookup(benchmark::State &state)
{
    sim::StatSet stats;
    for (auto _ : state)
        stats.counter("rx_pushed").add();
    benchmark::DoNotOptimize(stats.counterValue("rx_pushed"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterLookup);

/** The hot-path pattern now used by dispatch/rxPush/forwardOne:
 *  resolve the counter once, bump through the cached pointer. */
void
BM_StatCounterCached(benchmark::State &state)
{
    sim::StatSet stats;
    sim::Counter *c = &stats.counter("rx_pushed");
    for (auto _ : state)
        c->add();
    benchmark::DoNotOptimize(stats.counterValue("rx_pushed"));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatCounterCached);

/** Multi-slot batch segment encode (the rxPushBatch hot path). */
void
BM_MqueueBatchEncode(benchmark::State &state)
{
    core::MqueueLayout l;
    l.slots = 16;
    l.slotBytes = 2048;
    std::vector<std::uint8_t> payload(64, 0x5a);
    std::vector<core::SlotRecord> recs(
        static_cast<std::size_t>(state.range(0)));
    for (std::size_t j = 0; j < recs.size(); ++j) {
        recs[j].payload = payload;
        recs[j].meta.len = 64;
        recs[j].meta.seq = static_cast<std::uint32_t>(j + 1);
    }
    for (auto _ : state) {
        auto [off, buf] = core::encodeRxBatchSegment(l, 0, recs);
        benchmark::DoNotOptimize(buf.data());
        benchmark::DoNotOptimize(off);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MqueueBatchEncode)->Arg(4)->Arg(16);

void
BM_RdmaWriteDeliver(benchmark::State &state)
{
    for (auto _ : state) {
        sim::Simulator s;
        pcie::DeviceMemory mem("m", 1 << 16);
        rdma::QueuePair qp(s, "qp", mem, rdma::RdmaPathModel{});
        for (int i = 0; i < 200; ++i)
            qp.postWrite(static_cast<std::uint64_t>((i % 16) * 256),
                         std::vector<std::uint8_t>(64, 1));
        s.run();
    }
    state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_RdmaWriteDeliver);

void
BM_MqueueCodecRoundTrip(benchmark::State &state)
{
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(state.range(0)), 0x5a);
    core::SlotMeta meta;
    meta.len = static_cast<std::uint32_t>(payload.size());
    meta.seq = 7;
    for (auto _ : state) {
        auto buf = core::encodeSlotWrite(payload, meta);
        auto got = core::parseSlotMeta(buf);
        benchmark::DoNotOptimize(got.seq);
    }
    state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MqueueCodecRoundTrip)->Arg(64)->Arg(784)->Arg(1416);

void
BM_LenetForward(benchmark::State &state)
{
    apps::LeNet net;
    auto img = workload::synthMnist(3, 1);
    for (auto _ : state) {
        auto probs = net.forward(img);
        benchmark::DoNotOptimize(probs[0]);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LenetForward);

void
BM_LbpDistance(benchmark::State &state)
{
    auto a = workload::synthFace(1, 0);
    auto b = workload::synthFace(2, 0);
    for (auto _ : state) {
        double d = apps::lbpDistance(a, b, 32, 32);
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LbpDistance);

void
BM_Aes128Block(benchmark::State &state)
{
    apps::Aes128 aes({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                      15, 16});
    apps::Aes128::Block blk{};
    for (auto _ : state) {
        blk = aes.encrypt(blk);
        benchmark::DoNotOptimize(blk[0]);
    }
    state.SetBytesProcessed(state.iterations() * 16);
}
BENCHMARK(BM_Aes128Block);

// ---------------------------------------------------------------------
// Headline: steady-state message-hop events/sec — the overhauled
// engine versus an in-binary replica of the event path this PR
// replaced. Both sides run the identical workload: kDepth in-flight
// messages, each hop bumping rx/tx counters and forwarding the
// message through kBurst zero-delay wakeups (the channel-push /
// endpoint-signal / coroutine-resume pattern that dominates the
// simulator's event mix) followed by one timed hop with a
// deterministic 1 ns..100 us delay. The replica reproduces the seed
// engine cost-for-cost: (when, seq) binary heap of std::function
// events (72-byte captures — a forced heap allocation each), a
// std::vector payload inside every message, and string-keyed
// stats.counter() lookups per hop. The ratio is machine-independent:
// both sides run in the same process on the same box.
// ---------------------------------------------------------------------

constexpr std::size_t kHopDepth = 4096;    ///< in-flight messages
constexpr std::uint64_t kHopBurst = 3;     ///< zero-delay hops/timed hop
constexpr std::size_t kHopPayload = 64;    ///< payload bytes

std::uint64_t
hopLcg(std::uint64_t x)
{
    return x * 6364136223846793005ull + 1442695040888963407ull;
}

sim::Tick
hopDelay(std::uint64_t rng)
{
    // 1 ns .. ~8 us: NIC/PCIe-scale latencies, with enough spread
    // to keep both calendars kHopDepth deep.
    return 1 + static_cast<sim::Tick>((rng >> 33) % 8'192);
}

/** The seed engine, faithfully: a (when, seq)-ordered binary heap of
 *  type-erased std::function callbacks. Message-sized captures
 *  exceed libstdc++'s small-object buffer, so every scheduled hop
 *  heap-allocates — the cost inline EventFn removed. Zero-delay
 *  wakeups are this heap's worst case (full-depth sift both ways)
 *  and the engine's best (ready ring). */
class LegacyCalendar
{
  public:
    sim::Tick now() const { return now_; }

    template <typename F>
    void
    scheduleIn(sim::Tick delay, F &&fn)
    {
        q_.push(Ev{now_ + delay, seq_++, std::forward<F>(fn)});
    }

    void
    run()
    {
        while (!q_.empty()) {
            Ev ev = std::move(const_cast<Ev &>(q_.top()));
            q_.pop();
            now_ = ev.when;
            ev.fn();
        }
    }

  private:
    struct Ev
    {
        sim::Tick when;
        std::uint64_t seq;
        std::function<void()> fn;
    };
    struct After
    {
        bool
        operator()(const Ev &a, const Ev &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq; // FIFO among equal timestamps
        }
    };

    sim::Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::priority_queue<Ev, std::vector<Ev>, After> q_;
};

/** What net::Message was before payload pooling: header fields plus
 *  a std::vector that owns its bytes on the general heap. */
struct LegacyMsg
{
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t seq = 0;     ///< per-chain delay rng stream
    std::uint64_t traceId = 0; ///< zero-delay burst countdown
};

/** One hop server on the overhauled engine: event calendar + ready
 *  ring, net::Message with pooled Payload moved hop to hop inside an
 *  inline EventFn capture, counters bumped through pointers resolved
 *  once — the nic.cc deliver/send idiom. Each delivery forwards the
 *  message through kHopBurst zero-delay hops (dispatcher staging /
 *  forwarder handoff shape) and then one timed hop. */
class CalendarHopServer
{
  public:
    explicit CalendarHopServer(std::uint64_t budget) : budget_(budget) {}

    void
    step(net::Message msg)
    {
        cRxMsgs_->add();
        cRxBytes_->add(msg.size());
        if (++executed_ >= budget_)
            return; // stop forwarding; in-flight chains drain
        cTxMsgs_->add();
        cTxBytes_->add(msg.size());
        sim::Tick d = 0;
        if (msg.traceId > 0) {
            --msg.traceId; // one more zero-delay handoff in the burst
        } else {
            msg.traceId = kHopBurst;
            msg.seq = hopLcg(msg.seq);
            d = hopDelay(msg.seq);
        }
        auto ev = [this, m = std::move(msg)]() mutable {
            step(std::move(m));
        };
        static_assert(sim::EventFn::fitsInline<decltype(ev)>,
                      "hop capture must stay on the alloc-free path");
        eng_.scheduleIn(d, std::move(ev));
    }

    double
    run()
    {
        std::vector<std::uint8_t> bytes(kHopPayload, 0x5a);
        for (std::size_t i = 0; i < kHopDepth; ++i) {
            net::Message m;
            m.payload = bytes;
            m.seq = 0x9e3779b97f4a7c15ull * (i + 1) | 1;
            m.traceId = i % (kHopBurst + 1);
            eng_.scheduleIn(
                1 + static_cast<sim::Tick>((i * 257) % 100'000),
                [this, mm = std::move(m)]() mutable {
                    step(std::move(mm));
                });
        }
        auto t0 = std::chrono::steady_clock::now();
        eng_.run();
        auto t1 = std::chrono::steady_clock::now();
        return static_cast<double>(executed_) /
               std::chrono::duration<double>(t1 - t0).count();
    }

  private:
    sim::Simulator eng_;
    sim::StatSet stats_;
    std::uint64_t budget_;
    std::uint64_t executed_ = 0;
    sim::Counter *cRxMsgs_ = &stats_.counter("rx_msgs");
    sim::Counter *cRxBytes_ = &stats_.counter("rx_bytes");
    sim::Counter *cTxMsgs_ = &stats_.counter("tx_msgs");
    sim::Counter *cTxBytes_ = &stats_.counter("tx_bytes");
};

/** The same hop server on the seed-era event path: every scheduled
 *  hop constructs a message-sized std::function (a forced heap
 *  allocation), the payload lives in a heap std::vector, counters go
 *  through string-keyed map lookups, and the calendar is a binary
 *  heap — a zero-delay push is its full-depth worst case. */
class LegacyHopServer
{
  public:
    explicit LegacyHopServer(std::uint64_t budget) : budget_(budget) {}

    void
    step(LegacyMsg msg)
    {
        stats_.counter("rx_msgs").add();
        stats_.counter("rx_bytes").add(msg.payload.size());
        if (++executed_ >= budget_)
            return;
        stats_.counter("tx_msgs").add();
        stats_.counter("tx_bytes").add(msg.payload.size());
        sim::Tick d = 0;
        if (msg.traceId > 0) {
            --msg.traceId;
        } else {
            msg.traceId = kHopBurst;
            msg.seq = hopLcg(msg.seq);
            d = hopDelay(msg.seq);
        }
        eng_.scheduleIn(d, [this, m = std::move(msg)]() mutable {
            step(std::move(m));
        });
    }

    double
    run()
    {
        for (std::size_t i = 0; i < kHopDepth; ++i) {
            LegacyMsg m;
            m.payload.assign(kHopPayload, 0x5a);
            m.seq = 0x9e3779b97f4a7c15ull * (i + 1) | 1;
            m.traceId = i % (kHopBurst + 1);
            eng_.scheduleIn(
                1 + static_cast<sim::Tick>((i * 257) % 100'000),
                [this, mm = std::move(m)]() mutable {
                    step(std::move(mm));
                });
        }
        auto t0 = std::chrono::steady_clock::now();
        eng_.run();
        auto t1 = std::chrono::steady_clock::now();
        return static_cast<double>(executed_) /
               std::chrono::duration<double>(t1 - t0).count();
    }

  private:
    LegacyCalendar eng_;
    sim::StatSet stats_;
    std::uint64_t budget_;
    std::uint64_t executed_ = 0;
};

template <typename Server>
double
bestOf(int reps, std::uint64_t budget)
{
    double best = 0.0;
    for (int i = 0; i < reps; ++i) {
        Server srv(budget);
        best = std::max(best, srv.run());
    }
    return best;
}

/** Minimum accepted calendar/legacy speedup: a full run fails when a
 *  regression eats the engine overhaul's headline gain. The `--fast`
 *  smoke only reports it, since a wall-clock ratio taken on a loaded
 *  host (a parallel ctest) is not a deterministic check. */
constexpr double kMinSpeedup = 5.0;

int
runHeadline(bool fast, lynxbench::BenchJson &json)
{
    const std::uint64_t budget = fast ? 300'000 : 3'000'000;
    const int reps = fast ? 2 : 3;

    // Warm the payload/slab pools once so the measured runs see the
    // steady state (a long simulation's, not a cold process's).
    {
        CalendarHopServer warm(budget / 10);
        warm.run();
    }

    double calendar = bestOf<CalendarHopServer>(reps, budget);
    double legacy = bestOf<LegacyHopServer>(reps, budget);
    double ratio = calendar / legacy;

    std::printf("engine headline: steady-state message hops "
                "(depth %zu, %llu events)\n",
                kHopDepth, static_cast<unsigned long long>(budget));
    std::printf("  %-22s %12.0f events/s\n", "calendar", calendar);
    std::printf("  %-22s %12.0f events/s\n", "legacy heap+function",
                legacy);
    std::printf("  %-22s %12.2fx\n", "speedup", ratio);

    json.addRow({{"metric", "events_per_sec"},
                 {"engine", "calendar"},
                 {"value", calendar},
                 {"depth", static_cast<std::uint64_t>(kHopDepth)},
                 {"events", budget}});
    json.addRow({{"metric", "events_per_sec"},
                 {"engine", "legacy_heap_function"},
                 {"value", legacy},
                 {"depth", static_cast<std::uint64_t>(kHopDepth)},
                 {"events", budget}});
    json.addRow({{"metric", "speedup"},
                 {"value", ratio},
                 {"min_accepted", kMinSpeedup}});

    if (ratio < kMinSpeedup) {
        std::fprintf(stderr,
                     "%s: calendar/legacy speedup %.2fx below the "
                     "%.1fx floor\n",
                     fast ? "note" : "FAIL", ratio, kMinSpeedup);
        return fast ? 0 : 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // google-benchmark's own flags pass through to Initialize().
    const bool fast =
        lynxbench::parseArgs(argc, argv, {"--fast"}, "--benchmark_")
            .has("--fast");

    int rc;
    {
        lynxbench::BenchJson json("engine");
        rc = runHeadline(fast, json);
        json.write();
    }
    if (fast)
        return rc; // ctest smoke: headline + JSON row only

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return rc;
}
