/**
 * @file
 * The perf benchmark's harness: what one workload scenario hands the
 * harness, and how the harness times and checks it.
 *
 * Two clocks are measured, and every number says which one it uses:
 *
 *  - *host* time: what this machine spends building the world and
 *    running the simulator (std::chrono::steady_clock);
 *  - *simulated* time: what the modelled Lynx deployment takes
 *    (sim::Tick, nanoseconds), which is deterministic per seed.
 *
 * Per-layer numbers are taken from outside the program: counters from
 * the metrics registry and public getters after the run, stage times
 * from sim::SpanCollector in the traced run, and host times by timing
 * the benchmark's own calls into each layer. Every host time is scaled
 * to a nominal host speed by a reference kernel timed right after it
 * (harness.cc), because the shared host's speed drifts.
 */

#ifndef LYNX_BENCH_PERF_HARNESS_HH
#define LYNX_BENCH_PERF_HARNESS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/gpu.hh"
#include "net/message.hh"
#include "sim/processor.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "workload/loadgen.hh"

namespace lynxperf {

using namespace lynx;
using namespace lynx::sim::literals;

using Clock = std::chrono::steady_clock;

/** @return host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Set-up layers whose construction the harness times separately. */
enum class Phase { Net, Snic, Lynx, Accel, Apps, Workload, Count };

constexpr std::size_t kPhases = static_cast<std::size_t>(Phase::Count);

/** @return the metric suffix of @p p ("net", "snic", ...). */
const char *phaseName(Phase p);

/** Host seconds spent in each set-up layer of one world. */
using SetupTimes = std::array<double, kPhases>;

/** Adds the host time of its own lifetime to one set-up layer. */
class PhaseTimer
{
  public:
    PhaseTimer(SetupTimes &times, Phase p)
        : slot_(times[static_cast<std::size_t>(p)]), t0_(Clock::now())
    {}
    ~PhaseTimer() { slot_ += secondsSince(t0_); }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    double &slot_;
    Clock::time_point t0_;
};

/** A 64-bit mix of @p a and @p b (splitmix64 finalizer): seeds
 *  derived streams and picks pool entries by request seq, so a
 *  response can be checked from its seq alone. */
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/**
 * Wraps a workload's request builder and response checker. It counts
 * every request issued, keeps the exact simulated latency of every
 * in-window validated response (the load generator's own histogram
 * buckets them at ~3% resolution, too coarse for 1% bounds), and,
 * when timed, the host ns the two callbacks take.
 */
class Probe
{
  public:
    using Builder =
        std::function<std::vector<std::uint8_t>(std::uint64_t seq)>;
    using Checker = std::function<bool(const net::Message &resp)>;

    /** Install the callbacks on @p lg, whose warmup, duration and
     *  openRate must already be set: the window test mirrors
     *  LoadGen's own, so the samples kept here are exactly the ones
     *  it records (the harness checks count and sum against it). */
    void attach(workload::LoadGenConfig &lg, sim::Simulator &sim,
                Builder build, Checker check);

    /** Time every callback from now on (traced run only, so the
     *  untraced runs measure the simulator alone). */
    void setTimed(bool on) { timed_ = on; }

    std::uint64_t issued() const { return issued_; }
    double callbackNs() const { return callbackNs_; }

    /** In-window validated latencies, ns of simulated time. */
    std::vector<sim::Tick> &samples() { return samples_; }

  private:
    bool timed_ = false;
    std::uint64_t issued_ = 0;
    double callbackNs_ = 0;
    std::vector<sim::Tick> samples_;
};

/** How a scenario's clients load it and how long it runs. */
struct Shape
{
    bool openLoop = false;
    /** Cluster workloads: RSS steering must never fall back. */
    bool rss = false;
    sim::Tick warmup = 0;
    sim::Tick window = 0;
    /** Run horizon: past the window by enough for every in-flight
     *  request to complete or expire. */
    sim::Tick end = 0;
};

/**
 * One built scenario. The simulator is the first member, so it is
 * destroyed last, after every model that registered with it; derived
 * scenarios declare their components in dependency order.
 */
class World
{
  public:
    virtual ~World() = default;

    sim::Simulator sim;
    /** Installed only in the traced run. */
    std::unique_ptr<sim::SpanCollector> spans;
    Probe probe;
    Shape shape;

    /** The clients; every run starts them at simulated time 0. */
    std::vector<workload::LoadGen *> gens;

    /** The SmartNIC cores Lynx runs on and the accelerators. */
    std::vector<sim::Core *> snicCores;
    std::vector<accel::Gpu *> gpus;

    void
    addSnicCores(sim::CorePool &pool)
    {
        for (std::size_t i = 0; i < pool.size(); ++i)
            snicCores.push_back(&pool[i]);
    }

    /**
     * Run the service's application compute over this world's own
     * input pool outside the simulation, check every answer against
     * the pool's expected one, and return host us per request.
     * @param ok cleared on a wrong answer.
     */
    virtual double appHostUsPerReq(bool &ok) = 0;
};

/** One named workload of the benchmark (README.md says why each). */
struct Workload
{
    const char *name;
    std::unique_ptr<World> (*build)(std::uint64_t seed, SetupTimes &st);
};

/** @return every workload, in run order. */
const std::vector<Workload> &workloads();

/** @{ Scenario builders (one file each). */
std::unique_ptr<World> buildEchoFanout(std::uint64_t seed, SetupTimes &st);
std::unique_ptr<World> buildClusterSteady(std::uint64_t seed,
                                          SetupTimes &st);
std::unique_ptr<World> buildClusterOverload(std::uint64_t seed,
                                            SetupTimes &st);
std::unique_ptr<World> buildLenetBatched(std::uint64_t seed,
                                         SetupTimes &st);
std::unique_ptr<World> buildFaceverBackend(std::uint64_t seed,
                                           SetupTimes &st);
/** @} */

/** A metric as printed and written: name, value, unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one workload process reports. */
struct Report
{
    std::string workload;
    bool correct = true;
    std::vector<std::string> violations;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    int reps = 0;
    double warmupS = 0;
    double windowS = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers; ///< traced run only
};

/**
 * Measure @p w: untraced runs of one seed until @p seconds of host
 * time are used (medians of the host clocks; every simulated number
 * must repeat exactly), then, if @p traceDir is non-empty, one traced
 * run that must reproduce them and yields the per-layer metrics and
 * trace files.
 */
Report measure(const Workload &w, std::uint64_t seed, double seconds,
               const std::string &traceDir);

/** @return @p r as one JSON object. */
std::string toJson(const Report &r);

} // namespace lynxperf

#endif // LYNX_BENCH_PERF_HARNESS_HH
