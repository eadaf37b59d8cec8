/**
 * @file
 * Cluster-scale table (extension — see DESIGN.md §10): the paper's
 * single-server evaluation scaled out to a rack slice. M Lynx
 * machines (each a Bluefield fronting one GPU with 4 echo rings)
 * serve one open-loop client population of a million logical
 * clients, routed two ways:
 *
 *  - across machines by a consistent-hash ring keyed on the logical
 *    client id (net/steering.hh ConsistentHashRing), so shards keep
 *    their clients as the cluster grows;
 *  - within each machine by Toeplitz RSS over the flow 4-tuple
 *    (DispatchPolicy::Rss), so a flow always lands on the same
 *    server mqueue — the hardware-steering behaviour §4.3 assumes;
 *
 * with dispatch-plane admission control on: once a machine's tag
 * tables pass the occupancy threshold, new untenanted arrivals are
 * shed-and-counted instead of queueing without bound.
 *
 * The load generator is open loop on an absolute intended-send-time
 * schedule (no coordinated omission) with per-request timeouts, so
 * the sweep measures what a cluster operator actually sees: offered
 * load vs goodput, tail latency from the *intended* send time, and
 * an exact loss ledger (sent == completed + failed + late + lost).
 *
 * Sweeps machines x offered load {0.6x, 1.5x of aggregate ring
 * capacity}. Self-check (non-zero exit on violation):
 *
 *  - linear scaling: below saturation, 4 machines must serve >= 0.8
 *    x 4 x the 1-machine completion rate, at a sane tail;
 *  - graceful degradation: past saturation the cluster must shed
 *    (counted, > 0), keep the p99 of what it does serve bounded,
 *    and lose nothing silently — every client-observed loss is
 *    matched by a counted server-side shed/drop;
 *  - the open-loop conservation ledger balances exactly in every
 *    cell, and no response byte is ever corrupted.
 *
 * Writes BENCH_cluster_scale.json; `--fast` shrinks the window and
 * sweep for CI smoke use.
 */

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"

#include "net/steering.hh"
#include "pcie/fabric.hh"
#include "sim/task.hh"

using namespace lynxbench;

namespace {

/** Echo processing time per request: makes the accelerator rings
 *  the contended resource (as in the paper's GPU-bound services). */
constexpr sim::Tick kProcTime = 50_us;

constexpr int kRingsPerMachine = 4;

/** One machine's ring-service capacity, requests/second. */
constexpr double kMachineCapacityRps =
    static_cast<double>(kRingsPerMachine) * 1e9 /
    static_cast<double>(kProcTime);

/** Client flow (source-port) pool: enough distinct flows that RSS
 *  spreads them across every machine's mqueues. */
constexpr int kOpenPorts = 256;

constexpr std::uint64_t kLogicalClients = 1'000'000;

constexpr sim::Tick kRequestTimeout = 10_ms;
constexpr sim::Tick kSlo = 5_ms;

std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(64);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 131 + b * 29 + 7);
    return p;
}

/** One Lynx machine: Bluefield + local GPU + echo service. Members
 *  are ordered so the runtime is torn down before its devices. */
struct Machine
{
    std::unique_ptr<snic::Bluefield> bf;
    std::unique_ptr<pcie::Fabric> fabric;
    std::unique_ptr<accel::Gpu> gpu;
    std::unique_ptr<core::Runtime> rt;
    core::Service *svc = nullptr;
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
};

struct Cell
{
    int machines = 0;
    double loadFactor = 0;
    double offeredRps = 0;
    RunResult r;
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t late = 0;
    std::uint64_t inFlight = 0;
    std::uint64_t goodput = 0;
    bool conserved = false;
    std::uint64_t shed = 0;
    std::uint64_t admitted = 0;
    std::uint64_t serverDrops = 0; ///< sheds + every dispatcher drop
    std::uint64_t rssPicks = 0;
    std::uint64_t rssFallbacks = 0;
};

/** Sum a named counter over every per-machine dispatcher StatSet. */
std::uint64_t
sumCounter(const std::vector<std::unique_ptr<Machine>> &cluster,
           sim::StatSet &(core::Dispatcher::*set)(),
           const char *name)
{
    std::uint64_t n = 0;
    for (const auto &m : cluster)
        n += ((m->svc->dispatcher()).*set)().counterValue(name);
    return n;
}

/** Build one Lynx machine against @p s. */
std::unique_ptr<Machine>
buildMachine(sim::Simulator &s, net::Network &nw, int i)
{
    auto m = std::make_unique<Machine>();
    std::string id = std::to_string(i);
    m->bf = std::make_unique<snic::Bluefield>(s, nw, "bf" + id);
    m->fabric =
        std::make_unique<pcie::Fabric>(s, "server" + id + ".pcie");
    m->gpu = std::make_unique<accel::Gpu>(s, "gpu" + id, *m->fabric);

    core::RuntimeConfig cfg = m->bf->lynxRuntimeConfig();
    cfg.admission.enabled = true;
    // Tag tables hold 2x the ring slots, but a serial echo
    // worker keeps at most ~ringSlots+1 tags in flight per
    // queue (~0.52 occupancy); shed at the ring-capacity knee
    // so overload is refused up front, not dropped at the ring.
    cfg.admission.shedOccupancy = 0.45;
    m->rt = std::make_unique<core::Runtime>(s, cfg);

    auto &accel =
        m->rt->addAccelerator("gpu" + id, m->gpu->memory(), {});
    core::ServiceConfig scfg;
    scfg.name = "echo" + id;
    scfg.port = 7000;
    scfg.queuesPerAccel = kRingsPerMachine;
    scfg.ringSlots = 32;
    scfg.policy = core::DispatchPolicy::Rss;
    m->svc = &m->rt->addService(scfg);
    for (auto &q : m->rt->makeAccelQueues(*m->svc, accel)) {
        sim::spawn(s, apps::runEchoBlock(*m->gpu, *q, kProcTime));
        m->queues.push_back(std::move(q));
    }
    m->rt->start();
    return m;
}

Cell
measure(int machines, double loadFactor, bool fast)
{
    sim::Simulator s;
    net::Network nw(s);

    std::vector<std::unique_ptr<Machine>> cluster;
    net::steer::ConsistentHashRing ring;
    std::vector<std::uint32_t> nodes;
    for (int i = 0; i < machines; ++i) {
        cluster.push_back(buildMachine(s, nw, i));
        ring.add(static_cast<std::uint64_t>(i));
        nodes.push_back(cluster.back()->bf->node());
    }

    const double offered =
        loadFactor * kMachineCapacityRps * static_cast<double>(machines);

    auto &clientNic = nw.addNic("clients");
    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {nodes[0], 7000};
    lg.openRate = offered;
    lg.openPorts = kOpenPorts;
    lg.logicalClients = kLogicalClients;
    lg.warmup = fast ? 5_ms : 20_ms;
    lg.duration = fast ? 30_ms : 100_ms;
    lg.requestTimeout = kRequestTimeout;
    lg.slo = kSlo;
    lg.seed = 11;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    // Shard the client population over the cluster: a client's home
    // machine is fixed by the hash ring, independent of cluster
    // events' ordering.
    lg.routeTarget = [ring, nodes](std::uint64_t clientId) {
        return net::Address{
            nodes[static_cast<std::size_t>(ring.route(clientId))],
            7000};
    };
    workload::LoadGen gen(s, lg);
    gen.start();

    // Past the window, every straggler must either complete or pass
    // its deadline so the ledger's in-flight term drains to zero.
    s.runUntil(gen.windowEnd() + kRequestTimeout + 10_ms);

    Cell c;
    c.machines = machines;
    c.loadFactor = loadFactor;
    c.offeredRps = offered;
    c.r = collect(gen);
    c.sent = gen.sent();
    c.lost = gen.lost();
    c.late = gen.late();
    c.inFlight = gen.openInFlight();
    c.goodput = gen.goodput();
    c.conserved = gen.conservationHolds();
    c.shed =
        sumCounter(cluster, &core::Dispatcher::admissionStats,
                   "shed_ring_full");
    c.admitted = sumCounter(cluster, &core::Dispatcher::admissionStats,
                            "admitted");
    c.rssPicks =
        sumCounter(cluster, &core::Dispatcher::steerStats, "rss_picks");
    c.rssFallbacks = sumCounter(
        cluster, &core::Dispatcher::steerStats, "rss_fallbacks");
    c.serverDrops = c.shed;
    for (const char *drop :
         {"dropped_oversized", "dropped_no_tag", "dropped_ring_full",
          "dropped_transport", "dropped_no_live_queue",
          "dropped_tenant_reject"})
        c.serverDrops +=
            sumCounter(cluster, &core::Dispatcher::stats, drop);
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");
    banner("tab_cluster_scale",
           "cluster scale-out with RSS steering + admission control "
           "(extension)",
           "not reported in the paper — sharded Lynx machines under "
           "a coordinated-omission-free open loop must scale >= 0.8x "
           "linearly below saturation and degrade gracefully (counted "
           "sheds, bounded p99, zero silent loss) past it");
    BenchJson json("cluster_scale");

    const std::vector<int> sweep = fast ? std::vector<int>{1, 4}
                                        : std::vector<int>{1, 2, 4};
    const double below = 0.6;
    const double above = 1.5;

    std::printf("  %-4s %-5s %10s %10s %10s %8s %8s %10s %10s %8s\n",
                "M", "load", "offer/s", "tput/s", "goodput/s", "p50us",
                "p99us", "lost", "shed", "ledger");
    std::vector<Cell> cells;
    for (int m : sweep) {
        for (double f : {below, above}) {
            Cell c = measure(m, f, fast);
            std::printf("  %-4d %-5.2f %10.0f %10.0f %10.0f %8.1f "
                        "%8.1f %10llu %10llu %8s\n",
                        c.machines, c.loadFactor, c.offeredRps,
                        c.r.rps,
                        static_cast<double>(c.goodput) /
                            sim::toSeconds(fast ? 30_ms : 100_ms),
                        c.r.p50us, c.r.p99us,
                        static_cast<unsigned long long>(c.lost),
                        static_cast<unsigned long long>(c.shed),
                        c.conserved ? "exact" : "BROKEN");
            json.addRow({{"machines", c.machines},
                         {"load_factor", c.loadFactor},
                         {"offered_rps", c.offeredRps},
                         {"tput_rps", c.r.rps},
                         {"p50_us", c.r.p50us},
                         {"p99_us", c.r.p99us},
                         {"sent", c.sent},
                         {"completed", c.r.completed},
                         {"goodput", c.goodput},
                         {"lost", c.lost},
                         {"late", c.late},
                         {"in_flight", c.inFlight},
                         {"validation_failures", c.r.failures},
                         {"admitted", c.admitted},
                         {"shed", c.shed},
                         {"server_drops", c.serverDrops},
                         {"rss_picks", c.rssPicks},
                         {"rss_fallbacks", c.rssFallbacks},
                         {"conserved", c.conserved}});
            cells.push_back(c);
        }
    }

    auto cell = [&](int m, double f) -> const Cell & {
        for (const Cell &c : cells)
            if (c.machines == m && c.loadFactor == f)
                return c;
        std::abort();
    };

    bool ok = true;
    auto fail = [&](const char *what) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ok = false;
    };

    for (const Cell &c : cells) {
        if (!c.conserved)
            fail("open-loop conservation ledger does not balance");
        if (c.inFlight != 0)
            fail("requests still in flight after the drain horizon");
        if (c.r.failures != 0)
            fail("response bytes corrupted (validation failures)");
        if (c.rssPicks == 0)
            fail("RSS steering never picked a queue");
        if (c.rssFallbacks != 0)
            fail("RSS fell back off a healthy home queue");
    }

    // Linear scaling below saturation: the biggest cluster must
    // complete >= 0.8x (machines ratio) of the 1-machine rate.
    const int maxM = sweep.back();
    const Cell &one = cell(1, below);
    const Cell &big = cell(maxM, below);
    if (big.r.rps < 0.8 * maxM * one.r.rps)
        fail("sub-linear scaling below saturation (< 0.8x linear)");
    for (int m : sweep) {
        const Cell &c = cell(m, below);
        if (c.r.p99us > 2000.0)
            fail("below-saturation p99 above 2 ms");
        if (c.lost != 0)
            fail("losses below saturation");
    }

    // Graceful degradation past saturation: shed-and-count, keep the
    // served tail bounded, and never lose a request silently.
    for (int m : sweep) {
        const Cell &c = cell(m, above);
        if (c.shed == 0)
            fail("overload produced no counted sheds");
        if (c.r.p99us > sim::toMicroseconds(kSlo))
            fail("overload p99 of served requests above the SLO "
                 "envelope");
        if (c.lost > c.serverDrops)
            fail("silent loss: client-observed losses exceed counted "
                 "server-side sheds/drops");
        if (c.r.completed == 0)
            fail("overload starved the cluster completely");
    }

    if (ok)
        std::printf("\n  self-check OK: >= 0.8x linear scaling below "
                    "saturation, counted sheds + bounded p99 + exact "
                    "ledger past it\n");
    return ok ? 0 : 1;
}
