/**
 * @file
 * Load generation and latency measurement (the role sockperf plays
 * in the paper, §6: "a network load generator optimized for Mellanox
 * hardware ... each experiment 5 times, 20 seconds, with 2 seconds
 * warmup").
 *
 * Two modes:
 *  - closed loop: N workers, each with one outstanding request —
 *    measures unloaded/matched-load latency and natural throughput;
 *  - open loop: Poisson arrivals at a target rate — measures latency
 *    under a fixed offered load (and loss under overload).
 *
 * The open loop is scheduled on *absolute intended send times*: each
 * request's slot in the Poisson schedule is drawn up front, and its
 * latency is measured from that intended time, whether or not the
 * client NIC could actually transmit on schedule. A backpressured
 * sender (PFC pause, saturated link) therefore *raises* the recorded
 * tail instead of silently stretching the inter-arrival gaps — the
 * classic coordinated-omission bug this file used to have.
 *
 * Open-loop requests carry per-request timeout accounting with an
 * exact conservation invariant over in-window requests:
 *
 *     sent == completed + windowValidationFailures
 *                       + late + lost + openInFlight
 *
 * where `lost` requests expired unanswered, `late` ones were answered
 * after their deadline (excluded from the latency sample), and
 * `openInFlight` are still awaiting a response or expiry.
 *
 * Latency is computed from the request timestamp echoed back in the
 * response (Message::sentAt), recorded into an HDR histogram inside
 * the measurement window only.
 */

#ifndef LYNX_WORKLOAD_LOADGEN_HH
#define LYNX_WORKLOAD_LOADGEN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.hh"
#include "net/nic.hh"
#include "sim/co.hh"
#include "sim/histogram.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace lynx::workload {

/** Await a message on @p ep for at most @p timeout; nullopt on
 *  timeout. Starts no coroutine frame (Endpoint::recvUntil). */
inline net::Endpoint::RecvUntilAwaiter
recvTimeout(sim::Simulator &sim, net::Endpoint &ep, sim::Tick timeout)
{
    return ep.recvUntil(sim.now() + timeout);
}

/** Configuration of one load generator. */
struct LoadGenConfig
{
    /** The client machine's NIC. */
    net::Nic *nic = nullptr;

    /** Service address under test. */
    net::Address target;
    net::Protocol proto = net::Protocol::Udp;

    /** Closed-loop worker count (ignored in open-loop mode). */
    int concurrency = 1;

    /** >0: open-loop Poisson offered load, requests/second. */
    double openRate = 0.0;

    /** Measurement window: samples in [warmup, warmup+duration). */
    sim::Tick warmup = sim::milliseconds(20);
    sim::Tick duration = sim::milliseconds(200);

    /** Stop issuing after the window closes (plus drain time). */
    sim::Tick drain = sim::milliseconds(5);

    /** Request payload builder. */
    std::function<std::vector<std::uint8_t>(std::uint64_t seq, sim::Rng &)>
        makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(64, 0x42);
        };

    /** Optional response checker. Failed responses are counted and
     *  excluded from completions and the latency sample. */
    std::function<bool(const net::Message &resp)> validate;

    /** First client port; closed-loop worker i uses basePort + i,
     *  open-loop logical client c uses basePort + (c % openPorts). */
    std::uint16_t basePort = 40000;

    /** Open loop: size of the client source-port pool. Each port is
     *  a distinct flow for RSS steering; logical clients multiplex
     *  onto the pool. The pool [basePort, basePort+openPorts) must
     *  fit in 16 bits — construction fails fast otherwise, exactly
     *  like an over-wide closed-loop worker range. */
    int openPorts = 1;

    /** Open loop: logical client population. Each request is issued
     *  by a uniformly drawn client whose identity fixes its source
     *  port (flow) and its routeTarget key — millions of clients
     *  without millions of endpoints. 0 = one client per pool port. */
    std::uint64_t logicalClients = 0;

    /** Per-request timeout. Closed loop: lost-datagram recovery.
     *  Open loop: a request unanswered this long after its *intended*
     *  send time counts `lost` (a response arriving later moves it to
     *  `late`); both are excluded from the latency sample. */
    sim::Tick requestTimeout = sim::milliseconds(20);

    /** SLO bound for goodput accounting: completions with latency <=
     *  slo count toward goodput(). 0 = no bound (goodput == completed). */
    sim::Tick slo = 0;

    /** Open loop: per-request target override keyed by logical client
     *  (cluster routing, e.g. a consistent-hash ring over machines).
     *  Unset = every request goes to `target`. */
    std::function<net::Address(std::uint64_t clientId)> routeTarget;

    /** Open loop: per-request tenant override keyed by logical
     *  client. Unset = the fixed `tenant` below. */
    std::function<std::uint16_t(std::uint64_t clientId)> tenantOf;

    /** Mean exponential think time between closed-loop requests
     *  (0 = none). Decorrelates workers for latency measurements. */
    sim::Tick thinkTime = 0;

    /** Tenant id stamped on every request (lynx/tenant.hh); 0 =
     *  untenanted, the serving runtime's default VF. */
    std::uint16_t tenant = 0;

    std::uint64_t seed = 1;
};

/** A load generator bound to one client NIC. */
class LoadGen
{
  public:
    LoadGen(sim::Simulator &sim, LoadGenConfig cfg);
    ~LoadGen();

    LoadGen(const LoadGen &) = delete;
    LoadGen &operator=(const LoadGen &) = delete;

    /** Spawn the generator tasks. */
    void start();

    /** @return when the measurement window closes (run the simulator
     *  at least this far). */
    sim::Tick
    windowEnd() const
    {
        return cfg_.warmup + cfg_.duration + cfg_.drain;
    }

    /** @return response latency histogram (ns), window-only. In open
     *  loop, latencies are measured from the *intended* send time. */
    const sim::Histogram &latency() const { return latency_; }

    /** @return validated responses completed inside the window (open
     *  loop: before their deadline). */
    std::uint64_t completed() const { return completed_; }

    /** @return requests sent inside the window (open loop: requests
     *  whose *intended* send time lies in the window). */
    std::uint64_t sent() const { return sent_; }

    /** @return responses that failed validation (any window). */
    std::uint64_t validationFailures() const { return failures_; }

    /** @return in-window responses that failed validation (the
     *  conservation term). */
    std::uint64_t
    windowValidationFailures() const
    {
        return failuresWindow_;
    }

    /** @return request timeouts: closed-loop unanswered requests plus
     *  open-loop in-window requests that passed their deadline. */
    std::uint64_t timeouts() const { return timeouts_; }

    /** @return open-loop in-window requests that expired and were
     *  never answered. */
    std::uint64_t lost() const { return lost_; }

    /** @return open-loop in-window requests answered *after* their
     *  deadline (excluded from the latency sample). */
    std::uint64_t late() const { return late_; }

    /** @return completions within the SLO bound (== completed() when
     *  no SLO is configured). */
    std::uint64_t goodput() const { return goodput_; }

    /** @return open-loop in-window requests still awaiting a response
     *  or expiry. */
    std::uint64_t
    openInFlight() const
    {
        std::uint64_t n = 0;
        for (const auto &[seq, req] : outstanding_)
            n += req.inWindow ? 1 : 0;
        return n;
    }

    /** @return whether the open-loop books balance exactly:
     *  sent == completed + windowValidationFailures + late + lost +
     *  openInFlight. The terms are maintained independently (send
     *  path, receive path, expiry sweeper), so a hole in any of them
     *  breaks the balance — this is a real invariant, not an
     *  identity. */
    bool
    conservationHolds() const
    {
        return sent_ == completed_ + failuresWindow_ + late_ + lost_ +
                            openInFlight();
    }

    /** @return closed-loop responses discarded because their echoed
     *  seq did not match the outstanding request (a reply outliving
     *  its requestTimeout must not be attributed to the *next*
     *  request's latency sample), plus open-loop responses matching
     *  no outstanding or expired request (e.g. duplicates). */
    std::uint64_t
    staleResponses() const
    {
        return stats_.counterValue("stale_responses");
    }

    /** Counters ("stale_responses"), registered as
     *  "workload.loadgen" in the simulator's metrics registry. */
    sim::StatSet &stats() { return stats_; }

    /** @return completed-per-second over the window. */
    double
    throughputRps() const
    {
        return static_cast<double>(completed_) /
               sim::toSeconds(cfg_.duration);
    }

  private:
    /** One in-flight open-loop request. */
    struct OpenReq
    {
        sim::Tick intendedAt = 0;
        bool inWindow = false;
    };

    bool
    inWindow(sim::Tick t) const
    {
        return t >= cfg_.warmup && t < cfg_.warmup + cfg_.duration;
    }

    bool issuing() const { return sim_.now() < cfg_.warmup + cfg_.duration; }

    void recordResponse(const net::Message &resp);
    void recordOpenResponse(const net::Message &resp);

    sim::Task closedWorker(int idx);
    sim::Task openSender();
    sim::Task openReceiver(net::Endpoint &ep);
    sim::Task openExpiry();

    sim::Simulator &sim_;
    LoadGenConfig cfg_;
    sim::Rng rng_;
    std::uint64_t nextSeq_ = 0;

    sim::Histogram latency_;
    std::uint64_t completed_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t failuresWindow_ = 0;
    std::uint64_t timeouts_ = 0;
    std::uint64_t lost_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t goodput_ = 0;

    /** Open-loop request table: seq -> in-flight request. Every entry
     *  also has a deadline queued in expiry_ (deadlines are monotonic
     *  because intended times are). */
    std::unordered_map<std::uint64_t, OpenReq> outstanding_;
    /** Expired-but-unanswered requests (value: inWindow), kept so a
     *  straggler response classifies as `late`, not stale. */
    std::unordered_map<std::uint64_t, bool> expired_;
    std::deque<std::pair<std::uint64_t, sim::Tick>> expiry_;
    std::unique_ptr<sim::Gate> expiryGate_;
    /** The open sender drew its whole schedule (under backpressure
     *  this can be well after the window closes). */
    bool senderDone_ = false;

    sim::StatSet stats_;
    sim::Counter *cStaleResponses_;
};

} // namespace lynx::workload

#endif // LYNX_WORKLOAD_LOADGEN_HH
