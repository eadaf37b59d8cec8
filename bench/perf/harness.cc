#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace lynxperf {

namespace {

/** The window is timed in this many equal slices of simulated time,
 *  and host rates are their median: a burst of host noise then moves
 *  a few slices instead of the whole number. */
constexpr int kSlices = 24;

/** Set-up is timed this many times (fresh worlds) for its median. */
constexpr int kSetups = 7;

/** Nominal time of the reference kernel: every host time is reported
 *  as if measured on a host that completes the kernel in this long. */
constexpr double kRefNominalMs = 2.0;

/**
 * The host's momentary speed. On a shared machine the same slice of
 * simulation runs up to ~1.4x slower for tens of seconds at a time as
 * neighbours load it; a run median cannot average that out. This
 * fixed kernel (random read-modify-writes over 4 MiB, past L2 and
 * within L3, plus integer math: the simulator's own mix) slows down
 * with the host, so a time scaled by the kernel's time right after it
 * measures the simulator, not the neighbours. A first, untimed pass
 * brings the array back into cache, so the timed pass does not depend
 * on how much the work before it evicted.
 * @return host ms of one timed pass.
 */
double
refKernelMs()
{
    constexpr std::size_t kWords = std::size_t(1) << 20;
    static std::vector<std::uint32_t> words(kWords, 1);
    auto pass = [] {
        std::uint32_t x = 12345;
        std::uint32_t acc = 0;
        for (int i = 0; i < 400000; ++i) {
            x = x * 1664525u + 1013904223u;
            std::uint32_t &cell = words[(x >> 8) & (kWords - 1)];
            cell = cell * 31 + x;
            acc += cell >> 3;
        }
        // Keep the result observable so the loop is not folded away.
        asm volatile("" : : "r"(acc) : "memory");
    };
    pass();
    Clock::time_point t0 = Clock::now();
    pass();
    return secondsSince(t0) * 1e3;
}

/** Retained spans in the Chrome trace of a traced run. */
constexpr std::size_t kTraceSpans = 20000;

/** p99.9 needs at least this many samples to have ten beyond it. */
constexpr std::uint64_t kMinSamples = 10000;

/** Simulated results of one run: all of it must repeat exactly in
 *  every run of the same seed, traced or not. */
struct SimResult
{
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t inSlo = 0;
    std::uint64_t lost = 0;
    std::uint64_t late = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t badResponses = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t stale = 0;
    std::uint64_t shed = 0;
    std::uint64_t serverDrops = 0;
    std::uint64_t events = 0;
    std::uint64_t issued = 0;
    sim::Tick p50 = 0;
    sim::Tick p99 = 0;
    sim::Tick p999 = 0;
    /** Registry and getter counts the per-layer metrics derive from. */
    std::vector<double> counts;

    bool operator==(const SimResult &) const = default;
};

/** Host clocks of one world. */
struct HostResult
{
    double setupS = 0;
    SetupTimes phases{};
    double teardownS = 0;
    /** Per window slice, at the reference speed: requests issued per
     *  host second, and host ns per event fired. */
    std::vector<double> reqPerS;
    std::vector<double> nsPerEvent;
    /** Per window slice: the reference kernel's host ms. */
    std::vector<double> refMs;
};

struct Run
{
    Shape shape;
    SimResult sim;
    HostResult host;
    std::vector<Metric> spanMetrics; ///< traced run only
    double appUs = 0;                ///< traced run only
    double callbackNs = 0;           ///< traced run only
};

/** Counter layout of SimResult::counts. */
enum Count : std::size_t {
    kRouted,
    kNetDrops,
    kSnicBusy,
    kSnicCapacity,
    kDispatched,
    kRdmaOps,
    kRxPushed,
    kRxWrites,
    kTxPolls,
    kTxPopped,
    kTxFetches,
    kOverflow,
    kGioMsgs,
    kGioBursts,
    kBackendReqs,
    kLaunches,
    kBatchedItems,
    kBatchedLaunches,
    kRssFallbacks,
    kNumCounts
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Exact nearest-rank percentile of sorted @p v. */
sim::Tick
percentile(const std::vector<sim::Tick> &v, double p)
{
    if (v.empty())
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Read every count the per-layer metrics need, after the run. */
void
readCounts(World &w, SimResult &r)
{
    const sim::MetricsRegistry &m = w.sim.metrics();
    auto sum = [&](const char *prefix,
                   std::initializer_list<const char *> names) {
        std::uint64_t n = 0;
        for (const char *name : names)
            n += m.aggregateCounter(prefix, name);
        return static_cast<double>(n);
    };
    std::vector<double> &c = r.counts;
    c.assign(kNumCounts, 0.0);
    c[kRouted] = sum("net.fabric", {"routed"});
    c[kNetDrops] =
        sum("net.nic.", {"rx_drop_corrupt", "rx_no_endpoint",
                         "rx_drop_udp", "rx_drop_tcp"}) +
        sum("net.fabric",
            {"dropped_in_fabric", "dropped_by_fault", "partition_drops"}) +
        sum("net.ecn", {"egress_drops"});
    for (const sim::Core *core : w.snicCores)
        c[kSnicBusy] += static_cast<double>(core->busyTime());
    c[kSnicCapacity] = static_cast<double>(w.snicCores.size()) *
                       static_cast<double>(w.sim.now());
    c[kDispatched] = sum("lynx.dispatch.", {"dispatched"});
    c[kRdmaOps] =
        sum("rdma.qp.", {"write_ops", "read_ops", "barrier_ops"});
    c[kRxPushed] = sum("lynx.mq.", {"rx_pushed"});
    c[kRxWrites] = sum("lynx.mq.", {"rx_write_ops"});
    c[kTxPolls] = sum("lynx.mq.", {"tx_polls"});
    c[kTxPopped] = sum("lynx.mq.", {"tx_popped"});
    c[kTxFetches] = sum("lynx.mq.", {"tx_fetch_ops"});
    c[kOverflow] = sum("lynx.mq.", {"overflow"});
    c[kGioMsgs] = sum("gio.", {"rx_msgs"});
    c[kGioBursts] = sum("gio.", {"rx_bursts"});
    c[kBackendReqs] = sum("lynx.fwd.", {"backend_requests"});
    c[kRssFallbacks] = sum("steer.", {"rss_fallbacks"});
    for (accel::Gpu *gpu : w.gpus) {
        sim::StatSet &s = gpu->stats();
        c[kLaunches] += static_cast<double>(s.counterValue("device_launches"));
        c[kBatchedItems] +=
            static_cast<double>(s.counterValue("batched_items"));
        c[kBatchedLaunches] +=
            static_cast<double>(s.histogram("batch_size").count());
    }
    r.shed = m.aggregateCounter("admission.", "shed_ring_full");
    r.serverDrops = r.shed;
    for (const char *drop :
         {"dropped_oversized", "dropped_no_tag", "dropped_ring_full",
          "dropped_transport", "dropped_no_live_queue",
          "dropped_tenant_reject"})
        r.serverDrops += m.aggregateCounter("lynx.dispatch.", drop);
}

/** Per-stage span percentiles of the traced run. */
std::vector<Metric>
spanMetrics(const sim::SpanCollector &spans)
{
    struct StageMetric
    {
        sim::Stage stage;
        const char *name;
    };
    static const StageMetric kStages[] = {
        {sim::Stage::NicTx, "net.nic_tx"},
        {sim::Stage::SnicIngress, "net.snic_ingress"},
        {sim::Stage::DispatchEnqueue, "lynx.dispatch.enqueue"},
        {sim::Stage::MqueueWrite, "lynx.mq.write"},
        {sim::Stage::GioPop, "lynx.gio.pop"},
        {sim::Stage::AppStart, "accel.app_start"},
        {sim::Stage::AppEnd, "accel.app_end"},
        {sim::Stage::ForwarderTx, "lynx.fwd.tx"},
        {sim::Stage::ClientRx, "net.client_rx"},
    };
    std::vector<Metric> out;
    for (const StageMetric &s : kStages) {
        const sim::Histogram &h = spans.stageHistogram(s.stage);
        out.push_back({std::string(s.name) + "_p50_us",
                       sim::toMicroseconds(h.percentile(50)), "us"});
        out.push_back({std::string(s.name) + "_p99_us",
                       sim::toMicroseconds(h.percentile(99)), "us"});
    }
    return out;
}

void
writeFile(const std::string &path, const std::string &text,
          std::vector<std::string> &violations)
{
    std::ofstream out(path);
    out << text;
    if (!out.good())
        violations.push_back("cannot write " + path);
}

/** @return the factor that scales a host time just measured to the
 *  reference speed. */
double
toRefSpeed()
{
    return kRefNominalMs / refKernelMs();
}

/** Build one world, timing its set-up. */
std::unique_ptr<World>
build(const Workload &wl, std::uint64_t seed, HostResult &h)
{
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<World> w = wl.build(seed, h.phases);
    double raw = secondsSince(t0);
    double f = toRefSpeed();
    h.setupS = raw * f;
    for (double &p : h.phases)
        p *= f;
    return w;
}

void
teardown(std::unique_ptr<World> w, HostResult &h)
{
    Clock::time_point t0 = Clock::now();
    w.reset();
    double raw = secondsSince(t0);
    h.teardownS = raw * toRefSpeed();
}

/** Run @p w to its horizon, timing each slice of the window and the
 *  reference kernel right after it. */
void
runTimed(World &w, HostResult &h)
{
    const Shape &s = w.shape;
    w.sim.runUntil(s.warmup);
    for (int k = 1; k <= kSlices; ++k) {
        std::uint64_t issued = w.probe.issued();
        std::uint64_t events = w.sim.eventsExecuted();
        Clock::time_point t0 = Clock::now();
        w.sim.runUntil(s.warmup + s.window * static_cast<sim::Tick>(k) /
                                      kSlices);
        double raw = secondsSince(t0);
        double refMs = refKernelMs();
        double nominalDt = raw * kRefNominalMs / refMs;
        h.refMs.push_back(refMs);
        h.reqPerS.push_back(
            static_cast<double>(w.probe.issued() - issued) / nominalDt);
        h.nsPerEvent.push_back(
            nominalDt * 1e9 /
            static_cast<double>(w.sim.eventsExecuted() - events));
    }
    w.sim.runUntil(s.end);
}

/** Build, run and tear down one world. */
Run
runOnce(const Workload &wl, std::uint64_t seed, bool traced,
        const std::string &traceDir, std::vector<std::string> &violations)
{
    Run run;
    std::unique_ptr<World> w = build(wl, seed, run.host);
    run.shape = w->shape;
    if (traced) {
        w->spans = std::make_unique<sim::SpanCollector>(w->sim);
        w->spans->setRetainLimit(kTraceSpans);
        w->probe.setTimed(true);
    }
    runTimed(*w, run.host);

    SimResult &r = run.sim;
    double latencySum = 0;
    for (const workload::LoadGen *g : w->gens) {
        r.sent += g->sent();
        r.completed += g->completed();
        r.inSlo += g->goodput();
        r.lost += g->lost();
        r.late += g->late();
        r.timeouts += g->timeouts();
        r.badResponses += g->validationFailures();
        r.inFlight += g->openInFlight();
        r.stale += g->staleResponses();
        latencySum += g->latency().sum();
        if (w->shape.openLoop && !g->conservationHolds())
            violations.push_back("open-loop ledger does not balance");
    }
    r.events = w->sim.eventsExecuted();
    r.issued = w->probe.issued();

    std::vector<sim::Tick> &s = w->probe.samples();
    double sampleSum = 0;
    for (sim::Tick t : s)
        sampleSum += static_cast<double>(t);
    if (s.size() != r.completed || sampleSum != latencySum)
        violations.push_back("exact latency samples disagree with the "
                             "load generator's histogram");
    std::sort(s.begin(), s.end());
    r.p50 = percentile(s, 50);
    r.p99 = percentile(s, 99);
    r.p999 = percentile(s, 99.9);
    readCounts(*w, r);

    if (traced) {
        run.spanMetrics = spanMetrics(*w->spans);
        run.callbackNs = w->probe.callbackNs() * kRefNominalMs /
                         median(run.host.refMs);
        bool ok = true;
        run.appUs = w->appHostUsPerReq(ok);
        run.appUs *= toRefSpeed();
        if (!ok)
            violations.push_back("application compute disagrees with "
                                 "the input pool's expected answers");
        std::string base = traceDir + "/" + wl.name;
        std::ostringstream metrics;
        w->sim.metrics().json(metrics);
        writeFile(base + ".metrics.json", metrics.str(), violations);
        if (!w->spans->writeChromeTrace(base + ".trace.json"))
            violations.push_back("cannot write " + base + ".trace.json");
    }
    teardown(std::move(w), run.host);
    return run;
}

/** Correctness checks on the simulated result. */
void
check(const Shape &shape, const SimResult &r,
      std::vector<std::string> &violations)
{
    auto fail = [&](const std::string &what) { violations.push_back(what); };
    if (r.badResponses != 0)
        fail(std::to_string(r.badResponses) +
             " responses failed the byte-exact check");
    if (r.completed < kMinSamples)
        fail("only " + std::to_string(r.completed) +
             " latency samples (need >= 10000 for p99.9)");
    if (shape.openLoop) {
        if (r.inFlight != 0)
            fail("requests still in flight after the drain horizon");
        if (r.lost + r.late > r.serverDrops)
            fail("silent loss: client-side losses exceed the server's "
                 "counted sheds and drops");
    } else if (r.timeouts != 0) {
        fail(std::to_string(r.timeouts) + " closed-loop timeouts");
    }
    if (shape.rss && r.counts[kRssFallbacks] != 0)
        fail("RSS fell back off a healthy home queue");
}

void
add(std::vector<Metric> &out, std::string name, double value,
    const char *unit)
{
    out.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                   unit});
}

/** Metric number formatting: every digit the double holds. */
std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        out += (i ? "," : "") + quote(ms[i].name) + ":{\"value\":" +
               num(ms[i].value) + ",\"unit\":" + quote(ms[i].unit) + "}";
    }
    return out + "}";
}

/** The per-layer metrics: counts of the (shared) simulated result,
 *  host medians of the untraced runs, spans and callback times of the
 *  traced run. */
std::vector<Metric>
layerMetrics(const SimResult &r, const std::vector<HostResult> &hosts,
             double reqPerHostS, const Run &traced)
{
    auto med = [&](auto field) {
        std::vector<double> xs;
        for (const HostResult &h : hosts)
            for (double x : field(h))
                xs.push_back(x);
        return median(xs);
    };
    const std::vector<double> &c = r.counts;
    const double issued = static_cast<double>(r.issued);
    std::vector<Metric> l;
    add(l, "sim_samples", static_cast<double>(r.completed), "count");
    add(l, "sim.events_per_req", ratio(static_cast<double>(r.events), issued),
        "1/req");
    add(l, "sim.host_ns_per_event",
        med([](const HostResult &h) { return h.nsPerEvent; }), "ns");
    add(l, "host.ref_ms", med([](const HostResult &h) { return h.refMs; }),
        "ms");
    // Only worlds that ran have anything to tear down.
    add(l, "sim.teardown_s", med([](const HostResult &h) {
            return h.reqPerS.empty() ? std::vector<double>{}
                                     : std::vector<double>{h.teardownS};
        }),
        "s");
    for (std::size_t p = 0; p < kPhases; ++p)
        add(l,
            std::string("setup.") + phaseName(static_cast<Phase>(p)) + "_s",
            med([p](const HostResult &h) {
                return std::vector<double>{h.phases[p]};
            }),
            "s");
    add(l, "net.msgs_per_req", ratio(c[kRouted], issued), "1/req");
    add(l, "net.drops", c[kNetDrops], "count");
    add(l, "snic.core_busy_frac", ratio(c[kSnicBusy], c[kSnicCapacity]),
        "ratio");
    const double shedDrops = static_cast<double>(r.serverDrops);
    add(l, "lynx.dispatch.shed_ratio",
        ratio(shedDrops, shedDrops + c[kDispatched]), "ratio");
    add(l, "rdma.ops_per_req", ratio(c[kRdmaOps], issued), "1/req");
    add(l, "lynx.mq.rx_msgs_per_write", ratio(c[kRxPushed], c[kRxWrites]),
        "ratio");
    add(l, "lynx.mq.tx_polls_per_resp", ratio(c[kTxPolls], c[kTxPopped]),
        "ratio");
    add(l, "lynx.mq.overflow", c[kOverflow], "count");
    // A service that reads slot by slot never sweeps a burst: each
    // read then delivers exactly one message.
    add(l, "lynx.gio.msgs_per_burst",
        c[kGioBursts] > 0 ? c[kGioMsgs] / c[kGioBursts]
                          : (c[kGioMsgs] > 0 ? 1.0 : 0.0),
        "ratio");
    add(l, "lynx.fwd.resps_per_fetch", ratio(c[kTxPopped], c[kTxFetches]),
        "ratio");
    add(l, "lynx.fwd.backend_reqs_per_req", ratio(c[kBackendReqs], issued),
        "1/req");
    // Unbatched launches carry one item each.
    add(l, "accel.items_per_launch",
        ratio(c[kBatchedItems] + c[kLaunches] - c[kBatchedLaunches],
              c[kLaunches]),
        "ratio");
    add(l, "apps.host_us_per_req", traced.appUs, "us");
    add(l, "workload.host_ns_per_req", ratio(traced.callbackNs, issued),
        "ns");
    add(l, "workload.stale", static_cast<double>(r.stale), "count");
    add(l, "workload.late", static_cast<double>(r.late), "count");
    add(l, "workload.lost", static_cast<double>(r.lost), "count");
    add(l, "trace.overhead",
        1.0 - median(traced.host.reqPerS) / reqPerHostS, "ratio");
    for (const Metric &m : traced.spanMetrics)
        l.push_back(m);
    return l;
}

} // namespace

const char *
phaseName(Phase p)
{
    static const char *const kNames[kPhases] = {"net",  "snic", "lynx",
                                                "accel", "apps", "workload"};
    return kNames[static_cast<std::size_t>(p)];
}

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
Probe::attach(workload::LoadGenConfig &lg, sim::Simulator &sim,
              Builder build, Checker check)
{
    lg.makeRequest = [this, build = std::move(build)](std::uint64_t seq,
                                                      sim::Rng &) {
        ++issued_;
        if (!timed_)
            return build(seq);
        Clock::time_point t0 = Clock::now();
        std::vector<std::uint8_t> req = build(seq);
        callbackNs_ += secondsSince(t0) * 1e9;
        return req;
    };
    const sim::Tick open = lg.warmup;
    const sim::Tick close = lg.warmup + lg.duration;
    const bool openLoop = lg.openRate > 0.0;
    lg.validate = [this, &sim, check = std::move(check), open, close,
                   openLoop](const net::Message &resp) {
        Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
        bool ok = check(resp);
        if (timed_)
            callbackNs_ += secondsSince(t0) * 1e9;
        if (!ok)
            return false;
        // LoadGen's window test: open loop by the intended send time
        // (echoed back as sentAt), closed loop by both ends.
        auto in = [&](sim::Tick t) { return t >= open && t < close; };
        if (in(resp.sentAt) && (openLoop || in(sim.now())))
            samples_.push_back(sim.now() - resp.sentAt);
        return true;
    };
}

Report
measure(const Workload &wl, std::uint64_t seed, double seconds,
        const std::string &traceDir)
{
    Report rep;
    rep.workload = wl.name;
    std::vector<std::string> &v = rep.violations;

    // Set-up alone, several times, for the set-up median; the runs
    // below add theirs.
    std::vector<HostResult> hosts;
    Clock::time_point t0 = Clock::now();
    for (int i = 1; i < kSetups; ++i) {
        hosts.emplace_back();
        teardown(build(wl, seed, hosts.back()), hosts.back());
    }
    // Then full runs of the seed, as many as the host budget holds
    // (at least one).
    std::vector<Run> runs;
    Clock::time_point t1 = Clock::now();
    for (;;) {
        runs.push_back(runOnce(wl, seed, false, "", v));
        hosts.push_back(runs.back().host);
        if (!(runs.back().sim == runs.front().sim))
            v.push_back("simulated results differ between two runs of "
                        "the same seed");
        double perRun =
            secondsSince(t1) / static_cast<double>(runs.size());
        if (secondsSince(t0) + perRun > seconds)
            break;
    }
    const double rssMb = peakRssMb();
    const SimResult &r = runs.front().sim;
    const Shape &shape = runs.front().shape;
    check(shape, r, v);

    std::vector<double> rates, setups;
    for (const HostResult &h : hosts) {
        rates.insert(rates.end(), h.reqPerS.begin(), h.reqPerS.end());
        setups.push_back(h.setupS);
    }
    const double reqPerHostS = median(rates);
    const double windowS = sim::toSeconds(shape.window);
    // Every in-window request without a correct, timely answer,
    // counted sheds included.
    const std::uint64_t unanswered =
        shape.openLoop ? r.lost + r.late : r.timeouts;

    rep.reps = static_cast<int>(runs.size());
    rep.warmupS = sim::toSeconds(shape.warmup);
    rep.windowS = windowS;
    rep.attempted = r.sent;
    // A counted admission shed is the designed answer to overload, so
    // only what the server did not account for, or answered wrong,
    // is a failed operation; check() makes each of those a violation.
    rep.failed = r.badResponses + (unanswered > r.serverDrops
                                       ? unanswered - r.serverDrops
                                       : 0);

    std::vector<Metric> &e = rep.endToEnd;
    add(e, "sim_req_per_host_s", reqPerHostS, "1/s");
    add(e, "setup_s", median(setups), "s");
    add(e, "peak_rss_mb", rssMb, "MB");
    add(e, "sim_tput_rps", static_cast<double>(r.inSlo) / windowS, "1/s");
    add(e, "sim_p50_us", sim::toMicroseconds(r.p50), "us");
    add(e, "sim_p99_us", sim::toMicroseconds(r.p99), "us");
    add(e, "sim_p999_us", sim::toMicroseconds(r.p999), "us");
    add(e, "sim_ok_ratio",
        1.0 - ratio(static_cast<double>(unanswered + r.badResponses),
                    static_cast<double>(r.sent)),
        "ratio");

    if (!traceDir.empty()) {
        Run traced = runOnce(wl, seed, true, traceDir, v);
        if (!(traced.sim == r))
            v.push_back("traced run changed the simulated results "
                        "(spans must be zero-cost)");
        rep.layers = layerMetrics(r, hosts, reqPerHostS, traced);
        writeFile(traceDir + "/" + wl.name + ".layers.json",
                  metricsJson(rep.layers) + "\n", v);
    }
    rep.correct = v.empty();
    return rep;
}

std::string
toJson(const Report &r)
{
    std::string out = "{\"correct\":" + std::string(r.correct ? "true"
                                                               : "false");
    out += ",\"violations\":[";
    for (std::size_t i = 0; i < r.violations.size(); ++i)
        out += (i ? "," : "") + quote(r.violations[i]);
    out += "],\"attempted\":" + std::to_string(r.attempted) +
           ",\"failed\":" + std::to_string(r.failed) +
           ",\"reps\":" + std::to_string(r.reps) +
           ",\"sim_warmup_s\":" + num(r.warmupS) +
           ",\"sim_window_s\":" + num(r.windowS) +
           ",\"metrics\":" + metricsJson(r.endToEnd) +
           ",\"layers\":" + metricsJson(r.layers) + "}";
    return out;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> kAll = {
        {"echo_fanout", buildEchoFanout},
        {"cluster_steady", buildClusterSteady},
        {"cluster_overload", buildClusterOverload},
        {"lenet_batched", buildLenetBatched},
        {"facever_backend", buildFaceverBackend},
    };
    return kAll;
}

} // namespace lynxperf
