/**
 * @file
 * Shared scaffolding for the paper-reproduction benchmark binaries:
 * platform deployments (host-centric baseline, Lynx on 1/6 Xeon
 * cores, Lynx on Bluefield), load running, and table printing.
 *
 * Each bench binary regenerates one table or figure of the paper and
 * prints the same rows/series the paper reports, plus the paper's
 * reference values where it states them. See EXPERIMENTS.md.
 */

#ifndef LYNX_BENCH_COMMON_HH
#define LYNX_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/gpu.hh"
#include "apps/gpu_services.hh"
#include "baseline/host_server.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "snic/bluefield.hh"
#include "sim/simulator.hh"
#include "workload/loadgen.hh"

namespace lynxbench {

using namespace lynx;
using namespace lynx::sim::literals;

/** Server architecture under test. */
enum class Platform
{
    HostCentric,   ///< CPU-driven baseline (paper §6.1)
    LynxXeon1,     ///< Lynx on a single host Xeon core
    LynxXeon4,     ///< Lynx on 4 host Xeon cores
    LynxXeon6,     ///< Lynx on 6 host Xeon cores
    LynxBluefield, ///< Lynx on the Bluefield SNIC
};

inline const char *
platformName(Platform p)
{
    switch (p) {
      case Platform::HostCentric: return "host-centric";
      case Platform::LynxXeon1: return "lynx-xeon1";
      case Platform::LynxXeon4: return "lynx-xeon4";
      case Platform::LynxXeon6: return "lynx-xeon6";
      case Platform::LynxBluefield: return "lynx-bluefield";
    }
    return "?";
}

/** Condensed measurement of one run. */
struct RunResult
{
    double rps = 0;
    double meanUs = 0;
    double p50us = 0;
    double p90us = 0;
    double p99us = 0;
    std::uint64_t completed = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t failures = 0;
};

inline RunResult
collect(const workload::LoadGen &gen)
{
    RunResult r;
    r.rps = gen.throughputRps();
    r.meanUs = gen.latency().mean() / 1000.0;
    r.p50us = sim::toMicroseconds(gen.latency().percentile(50));
    r.p90us = sim::toMicroseconds(gen.latency().percentile(90));
    r.p99us = sim::toMicroseconds(gen.latency().percentile(99));
    r.completed = gen.completed();
    r.timeouts = gen.timeouts();
    r.failures = gen.validationFailures();
    return r;
}

/** Print the standard bench banner. */
inline void
banner(const char *id, const char *title, const char *paperClaim)
{
    std::printf("==================================================="
                "=========================\n");
    std::printf("%s: %s\n", id, title);
    std::printf("paper: %s\n", paperClaim);
    std::printf("---------------------------------------------------"
                "-------------------------\n");
}

/** The flags a bench was given (see parseArgs()). */
struct BenchArgs
{
    /** (accepted flag, value) per argument, in command-line order;
     *  the value is empty for a switch. */
    std::vector<std::pair<std::string_view, std::string_view>> given;

    /** @return whether @p flag was given. */
    bool
    has(std::string_view flag) const
    {
        for (const auto &[f, v] : given)
            if (f == flag)
                return true;
        return false;
    }

    /** @return the value of the last "@p flag VALUE" ("" if absent). */
    std::string
    value(std::string_view flag) const
    {
        std::string out;
        for (const auto &[f, v] : given)
            if (f == flag)
                out = v;
        return out;
    }
};

/**
 * Check a bench's command line against the flags it @p accepted. A
 * flag listed with a trailing '=' ("--trace-out=") takes its value in
 * the same argument; the others are switches. Any other argument
 * prints usage and exits with status 2, so a mistyped flag cannot
 * silently run the full sweep. Arguments that start with
 * @p passPrefix are kept in argv, and argc shrinks to them, for
 * another parser (google-benchmark's "--benchmark_").
 */
inline BenchArgs
parseArgs(int &argc, char **argv,
          std::initializer_list<std::string_view> accepted,
          std::string_view passPrefix = {})
{
    BenchArgs args;
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!passPrefix.empty() && arg.starts_with(passPrefix)) {
            argv[kept++] = argv[i];
            continue;
        }
        bool known = false;
        for (std::string_view flag : accepted) {
            if (flag.ends_with('=') ? arg.starts_with(flag) : arg == flag) {
                args.given.emplace_back(
                    flag, flag.ends_with('=') ? arg.substr(flag.size())
                                              : std::string_view{});
                known = true;
                break;
            }
        }
        if (known)
            continue;
        std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s",
                     argv[0], argv[i], argv[0]);
        for (std::string_view flag : accepted)
            std::fprintf(stderr, " [%.*s%s]", static_cast<int>(flag.size()),
                         flag.data(), flag.ends_with('=') ? "VALUE" : "");
        if (!passPrefix.empty())
            std::fprintf(stderr, " [%.*s...]",
                         static_cast<int>(passPrefix.size()),
                         passPrefix.data());
        std::fprintf(stderr, "\n");
        std::exit(2);
    }
    argc = kept;
    argv[kept] = nullptr;
    return args;
}

/**
 * Host wall-clock stopwatch (monotonic). Simulated results are
 * wall-clock-free by design, but the *cost* of producing them is the
 * simulator's own performance — every bench records how long the host
 * spent next to what the simulation measured.
 */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    void reset() { start_ = std::chrono::steady_clock::now(); }

    /** @return seconds elapsed since construction or reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** One JSON-encodable cell of a BenchJson row. */
struct JsonValue
{
    std::string enc;

    JsonValue(const char *s) : enc(quote(s)) {}
    JsonValue(const std::string &s) : enc(quote(s)) {}
    JsonValue(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.4f", v);
        enc = buf;
    }
    JsonValue(std::uint64_t v) : enc(std::to_string(v)) {}
    JsonValue(int v) : enc(std::to_string(v)) {}
    JsonValue(bool v) : enc(v ? "true" : "false") {}

    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        out += '"';
        return out;
    }
};

/**
 * Machine-readable companion of a bench's printed table: accumulates
 * rows and writes `BENCH_<id>.json` ({"bench": id, "wall_s": host
 * seconds since construction, "rows": [...]}) into the working
 * directory on destruction or write(). The top-level "wall_s" stamps
 * every bench with the host cost of its whole sweep; rows that time
 * individual runs add their own per-row fields from a WallTimer.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string id) : id_(std::move(id)) {}

    BenchJson(const BenchJson &) = delete;
    BenchJson &operator=(const BenchJson &) = delete;

    ~BenchJson() { write(); }

    void
    addRow(std::initializer_list<std::pair<const char *, JsonValue>>
               fields)
    {
        std::string row = "{";
        bool first = true;
        for (const auto &[key, val] : fields) {
            if (!first)
                row += ",";
            first = false;
            row += JsonValue::quote(key) + ":" + val.enc;
        }
        row += "}";
        rows_.push_back(std::move(row));
    }

    void
    write()
    {
        if (written_)
            return;
        written_ = true;
        std::string path = "BENCH_" + id_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\"bench\":%s,\"wall_s\":%.3f,\"rows\":[",
                     JsonValue::quote(id_).c_str(), wall_.seconds());
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::fprintf(f, "%s%s", i ? "," : "", rows_[i].c_str());
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("[json] wrote %s (%zu rows)\n", path.c_str(),
                    rows_.size());
    }

  private:
    std::string id_;
    std::vector<std::string> rows_;
    WallTimer wall_;
    bool written_ = false;
};

/**
 * A complete single-server echo deployment of one platform: used by
 * the Fig. 6 throughput and Fig. 7 latency microbenchmarks.
 *
 * GPU side: one persistent echo block per mqueue, each emulating
 * `procTime` of request processing (§6.2 microbenchmark kernel).
 */
/** Deployment knobs of an EchoWorld beyond platform/queues. */
struct EchoOptions
{
    /** mqueue write behaviour (coalescing / barrier / RX batching;
     *  `mq.maxBatch` is also the dispatcher's staging batch). */
    core::SnicMqueueConfig mq;

    /** Partial-batch flush linger (see RuntimeConfig). */
    sim::Tick dispatchFlushLinger =
        calibration::snicDispatchFlushLinger;

    /** Forwarder-side TX fetch batch (1 = per-slot fetches). */
    int forwardMaxBatch = 1;

    /** Idle-scaled forwarder discovery: lower the band's floor to
     *  calibration::snicPollBackoffMin. */
    bool adaptivePoll = false;

    /** Accelerator-side multi-slot doorbell consumption. */
    bool gioBurst = false;

    /** Request payload size sent by the load generators. */
    std::size_t payloadBytes = 64;
};

class EchoWorld
{
  public:
    EchoWorld(Platform platform, int mqueues, sim::Tick procTime,
              core::SnicMqueueConfig mqCfg = {})
        : EchoWorld(platform, mqueues, procTime,
                    EchoOptions{.mq = mqCfg})
    {}

    EchoWorld(Platform platform, int mqueues, sim::Tick procTime,
              EchoOptions opts)
        : platform_(platform), opts_(opts)
    {
        clientNic_ = &network_.addNic("client0");
        clientNic2_ = &network_.addNic("client1");
        serverHost_ = std::make_unique<host::Node>(s_, network_,
                                                   "server0");
        fabric_ = std::make_unique<pcie::Fabric>(s_, "server0.pcie");
        gpu_ = std::make_unique<accel::Gpu>(s_, "k40m", *fabric_);

        if (platform == Platform::HostCentric) {
            driver_ = std::make_unique<accel::GpuDriver>(s_, *gpu_);
            baseline::HostServerConfig cfg;
            cfg.nic = &serverHost_->nic();
            cfg.port = port_;
            cfg.stack = calibration::vmaXeon();
            cfg.cores = {&serverHost_->cores()[0]};
            cfg.streams = mqueues;
            hostServer_ = std::make_unique<baseline::HostCentricServer>(
                s_, *driver_, cfg, apps::hostEchoHandler(procTime));
            hostServer_->start();
            serverNode_ = serverHost_->id();
            return;
        }

        core::RuntimeConfig cfg;
        if (platform == Platform::LynxBluefield) {
            bluefield_ = std::make_unique<snic::Bluefield>(s_, network_,
                                                           "bf0");
            cfg = bluefield_->lynxRuntimeConfig();
            serverNode_ = bluefield_->node();
        } else {
            int ncores = platform == Platform::LynxXeon1   ? 1
                         : platform == Platform::LynxXeon4 ? 4
                                                           : 6;
            std::vector<sim::Core *> cores;
            for (int i = 0; i < ncores; ++i)
                cores.push_back(&serverHost_->cores()[
                    static_cast<std::size_t>(i)]);
            cfg = snic::hostRuntimeConfig(cores, serverHost_->nic());
            serverNode_ = serverHost_->id();
        }
        cfg.mq = opts_.mq;
        cfg.dispatchFlushLinger = opts_.dispatchFlushLinger;
        cfg.forwarder.maxBatch = opts_.forwardMaxBatch;
        if (opts_.adaptivePoll)
            cfg.forwarder.pollBackoffMin = calibration::snicPollBackoffMin;
        cfg.gio.rxBurst = opts_.gioBurst;
        runtime_ = std::make_unique<core::Runtime>(s_, cfg);
        auto &accel = runtime_->addAccelerator("k40m", gpu_->memory(),
                                               rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "echo";
        scfg.port = port_;
        scfg.queuesPerAccel = mqueues;
        auto &svc = runtime_->addService(scfg);
        queues_ = runtime_->makeAccelQueues(svc, accel);
        for (auto &q : queues_)
            sim::spawn(s_, apps::runEchoBlock(*gpu_, *q, procTime));
        runtime_->start();
    }

    /** Run a closed-loop load (split over two client machines). */
    RunResult
    run(int concurrency, sim::Tick warmup = 5_ms,
        sim::Tick duration = 60_ms, sim::Tick thinkTime = 0)
    {
        auto makeGen = [&](net::Nic *nic, int conc, std::uint16_t base,
                           std::uint64_t seed) {
            workload::LoadGenConfig lg;
            lg.nic = nic;
            lg.target = {serverNode_, port_};
            lg.concurrency = conc;
            lg.warmup = warmup;
            lg.duration = duration;
            lg.basePort = base;
            lg.seed = seed;
            lg.thinkTime = thinkTime;
            lg.requestTimeout = 200_ms;
            std::size_t payloadBytes = opts_.payloadBytes;
            lg.makeRequest = [payloadBytes](std::uint64_t, sim::Rng &) {
                return std::vector<std::uint8_t>(payloadBytes, 0x42);
            };
            return std::make_unique<workload::LoadGen>(s_, lg);
        };
        int c1 = concurrency / 2, c2 = concurrency - c1;
        std::vector<std::unique_ptr<workload::LoadGen>> gens;
        if (c1 > 0)
            gens.push_back(makeGen(clientNic_, c1, 40000, 11));
        if (c2 > 0)
            gens.push_back(makeGen(clientNic2_, c2, 40000, 23));
        for (auto &g : gens)
            g->start();
        s_.runUntil(s_.now() + warmup + duration + 10_ms);

        RunResult sum;
        sim::Histogram merged;
        for (auto &g : gens) {
            sum.rps += g->throughputRps();
            sum.completed += g->completed();
            sum.timeouts += g->timeouts();
            sum.failures += g->validationFailures();
            merged.merge(g->latency());
        }
        sum.meanUs = merged.mean() / 1000.0;
        sum.p50us = sim::toMicroseconds(merged.percentile(50));
        sum.p90us = sim::toMicroseconds(merged.percentile(90));
        sum.p99us = sim::toMicroseconds(merged.percentile(99));
        return sum;
    }

    sim::Simulator &sim() { return s_; }
    net::Network &network() { return network_; }
    accel::Gpu &gpu() { return *gpu_; }

    /** @return the Lynx runtime (null on the host-centric baseline). */
    core::Runtime *runtime() { return runtime_.get(); }

  private:
    Platform platform_;
    EchoOptions opts_;
    std::uint16_t port_ = 7000;
    std::uint32_t serverNode_ = 0;

    sim::Simulator s_;
    net::Network network_{s_};
    net::Nic *clientNic_ = nullptr;
    net::Nic *clientNic2_ = nullptr;
    std::unique_ptr<host::Node> serverHost_;
    std::unique_ptr<pcie::Fabric> fabric_;
    std::unique_ptr<accel::Gpu> gpu_;
    std::unique_ptr<snic::Bluefield> bluefield_;
    std::unique_ptr<accel::GpuDriver> driver_;
    std::unique_ptr<baseline::HostCentricServer> hostServer_;
    std::unique_ptr<core::Runtime> runtime_;
    std::vector<std::unique_ptr<core::AccelQueue>> queues_;
};

} // namespace lynxbench

#endif // LYNX_BENCH_COMMON_HH
