#include "loadgen.hh"

#include "sim/span.hh"

namespace lynx::workload {

LoadGen::LoadGen(sim::Simulator &sim, LoadGenConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), rng_(cfg_.seed),
      cStaleResponses_(&stats_.counter("stale_responses"))
{
    LYNX_FATAL_IF(!cfg_.nic, "load generator needs a client NIC");
    // A port pool that overflows 16 bits would wrap and silently
    // alias two workers (or two flows) onto one endpoint — their
    // responses would cross-match and corrupt every latency sample.
    if (cfg_.openRate > 0.0) {
        LYNX_FATAL_IF(cfg_.openPorts < 1,
                      "open-loop port pool must hold at least 1 port");
        LYNX_FATAL_IF(static_cast<int>(cfg_.basePort) + cfg_.openPorts -
                              1 >
                          0xffff,
                      "open-loop port pool [", cfg_.basePort, ", ",
                      static_cast<int>(cfg_.basePort) + cfg_.openPorts,
                      ") wraps past 65535");
    } else {
        LYNX_FATAL_IF(
            static_cast<int>(cfg_.basePort) + cfg_.concurrency - 1 >
                0xffff,
            "closed-loop port range [", cfg_.basePort, ", ",
            static_cast<int>(cfg_.basePort) + cfg_.concurrency,
            ") wraps past 65535 and would alias workers");
    }
    sim_.metrics().add("workload.loadgen", stats_);
}

LoadGen::~LoadGen()
{
    sim_.metrics().remove(stats_);
}

void
LoadGen::start()
{
    if (cfg_.openRate > 0.0) {
        for (int p = 0; p < cfg_.openPorts; ++p) {
            net::Endpoint &ep = cfg_.nic->bind(
                cfg_.proto,
                static_cast<std::uint16_t>(cfg_.basePort + p));
            sim::spawn(sim_, openReceiver(ep));
        }
        expiryGate_ = std::make_unique<sim::Gate>(sim_);
        sim::spawn(sim_, openExpiry());
        sim::spawn(sim_, openSender());
    } else {
        for (int i = 0; i < cfg_.concurrency; ++i)
            sim::spawn(sim_, closedWorker(i));
    }
}

void
LoadGen::recordResponse(const net::Message &resp)
{
    if (sim::SpanCollector *spans = sim_.spans())
        spans->finish(resp.traceId, sim_.now());
    bool inWin = inWindow(sim_.now()) && inWindow(resp.sentAt);
    if (cfg_.validate && !cfg_.validate(resp)) {
        // A failed response is evidence of corruption, not of
        // completed work: count it, but keep it out of completed_
        // and the latency sample.
        ++failures_;
        if (inWin)
            ++failuresWindow_;
        return;
    }
    if (inWin) {
        ++completed_;
        sim::Tick lat = sim_.now() - resp.sentAt;
        latency_.record(lat);
        if (cfg_.slo == 0 || lat <= cfg_.slo)
            ++goodput_;
    }
}

sim::Task
LoadGen::closedWorker(int idx)
{
    // The constructor rejected ranges that overflow 16 bits, so this
    // narrowing cannot wrap.
    std::uint16_t port =
        static_cast<std::uint16_t>(cfg_.basePort + idx);
    net::Endpoint &ep = cfg_.nic->bind(cfg_.proto, port);
    sim::Rng rng(cfg_.seed * 1315423911u + idx);

    // Stagger worker start-up so closed-loop clients do not fire in
    // lockstep bursts.
    if (cfg_.thinkTime)
        co_await sim::sleep(
            static_cast<sim::Tick>(rng.exponential(
                static_cast<double>(cfg_.thinkTime))));

    while (issuing()) {
        std::uint64_t seq = nextSeq_++;
        net::Message m;
        m.src = {cfg_.nic->node(), port};
        m.dst = cfg_.target;
        m.proto = cfg_.proto;
        m.payload = cfg_.makeRequest(seq, rng);
        m.seq = seq;
        m.sentAt = sim_.now();
        m.tenant = cfg_.tenant;
        if (sim::SpanCollector *spans = sim_.spans()) {
            m.traceId = spans->begin(sim_.now());
            if (cfg_.tenant != 0)
                spans->setTenant(m.traceId, cfg_.tenant);
        }
        if (inWindow(sim_.now()))
            ++sent_;
        co_await cfg_.nic->send(std::move(m));

        // Receive until the outstanding seq answers or the deadline
        // passes. A response whose echoed seq does not match is a
        // *stale* reply to an earlier, timed-out request: recording it
        // would attribute the old request's (long) round trip to this
        // request's latency sample, so it is discarded and counted.
        sim::Tick deadline = sim_.now() + cfg_.requestTimeout;
        bool matched = false;
        for (;;) {
            sim::Tick remaining =
                deadline > sim_.now() ? deadline - sim_.now() : 0;
            auto resp = co_await recvTimeout(sim_, ep, remaining);
            if (!resp)
                break;
            if (resp->seq != seq) {
                cStaleResponses_->add();
                continue;
            }
            recordResponse(*resp);
            matched = true;
            break;
        }
        if (!matched) {
            ++timeouts_;
            continue;
        }
        if (cfg_.thinkTime) {
            co_await sim::sleep(static_cast<sim::Tick>(
                rng.exponential(static_cast<double>(cfg_.thinkTime))));
        }
    }
}

sim::Task
LoadGen::openSender()
{
    double meanGapNs = 1e9 / cfg_.openRate;
    std::uint64_t clients =
        cfg_.logicalClients
            ? cfg_.logicalClients
            : static_cast<std::uint64_t>(cfg_.openPorts);
    std::uint64_t ports = static_cast<std::uint64_t>(cfg_.openPorts);
    sim::Tick close = cfg_.warmup + cfg_.duration;
    // The whole schedule is drawn on an absolute clock: each
    // request's intended send time advances by a Poisson gap drawn
    // *before* the send, and the request is stamped with (and
    // measured from) that intended time. If the NIC falls behind —
    // PFC pause, saturated link — the schedule does not stretch; the
    // slip lands in the recorded latency, where it belongs.
    sim::Tick intended = sim_.now();
    for (;;) {
        intended +=
            1 + static_cast<sim::Tick>(rng_.exponential(meanGapNs));
        if (intended >= close)
            break;
        std::uint64_t clientId = clients > 1 ? rng_.below(clients) : 0;
        if (sim_.now() < intended)
            co_await sim::sleep(intended - sim_.now());
        std::uint64_t seq = nextSeq_++;
        net::Message m;
        m.src = {cfg_.nic->node(),
                 static_cast<std::uint16_t>(cfg_.basePort +
                                            clientId % ports)};
        m.dst = cfg_.routeTarget ? cfg_.routeTarget(clientId)
                                 : cfg_.target;
        m.proto = cfg_.proto;
        m.payload = cfg_.makeRequest(seq, rng_);
        m.seq = seq;
        m.sentAt = intended;
        m.tenant = cfg_.tenantOf ? cfg_.tenantOf(clientId)
                                 : cfg_.tenant;
        if (sim::SpanCollector *spans = sim_.spans()) {
            m.traceId = spans->begin(intended);
            if (m.tenant != 0)
                spans->setTenant(m.traceId, m.tenant);
        }
        bool inWin = inWindow(intended);
        if (inWin)
            ++sent_;
        outstanding_.emplace(seq, OpenReq{intended, inWin});
        expiry_.emplace_back(seq, intended + cfg_.requestTimeout);
        expiryGate_->open();
        co_await cfg_.nic->send(std::move(m));
    }
    senderDone_ = true;
    expiryGate_->open();
}

void
LoadGen::recordOpenResponse(const net::Message &resp)
{
    if (sim::SpanCollector *spans = sim_.spans())
        spans->finish(resp.traceId, sim_.now());
    auto it = outstanding_.find(resp.seq);
    if (it != outstanding_.end()) {
        OpenReq req = it->second;
        outstanding_.erase(it);
        if (cfg_.validate && !cfg_.validate(resp)) {
            ++failures_;
            if (req.inWindow)
                ++failuresWindow_;
            return;
        }
        if (req.inWindow) {
            ++completed_;
            // Latency from the *intended* send time (the request
            // table is authoritative; a server need not echo it).
            sim::Tick lat = sim_.now() - req.intendedAt;
            latency_.record(lat);
            if (cfg_.slo == 0 || lat <= cfg_.slo)
                ++goodput_;
        }
        return;
    }
    auto ex = expired_.find(resp.seq);
    if (ex != expired_.end()) {
        // Answered after its deadline: the timeout stands, but the
        // request is late, not lost.
        if (ex->second) {
            ++late_;
            --lost_;
        }
        expired_.erase(ex);
        return;
    }
    cStaleResponses_->add();
}

sim::Task
LoadGen::openReceiver(net::Endpoint &ep)
{
    for (;;) {
        net::Message resp = co_await ep.recv();
        recordOpenResponse(resp);
    }
}

sim::Task
LoadGen::openExpiry()
{
    // Deadlines are monotonic (intended times are), so the front of
    // expiry_ is always the next one due. The sweeper sleeps until
    // it, parks on the gate when nothing is queued, and exits once
    // the run is over and the table has drained.
    for (;;) {
        if (expiry_.empty()) {
            if (senderDone_)
                co_return;
            expiryGate_->close();
            co_await expiryGate_->wait();
            continue;
        }
        auto [seq, deadline] = expiry_.front();
        if (sim_.now() < deadline) {
            co_await sim::sleep(deadline - sim_.now());
            continue;
        }
        expiry_.pop_front();
        auto it = outstanding_.find(seq);
        if (it == outstanding_.end())
            continue; // answered in time
        if (it->second.inWindow) {
            ++timeouts_;
            ++lost_;
        }
        expired_.emplace(seq, it->second.inWindow);
        outstanding_.erase(it);
    }
}

} // namespace lynx::workload
