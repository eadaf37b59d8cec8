/**
 * @file
 * Multi-tenant isolation table (extension — see DESIGN.md §9): two
 * hundred tenants with Zipf-skewed load share one Lynx dispatch
 * plane while a single *bully* tenant bursts to 10x its steady rate.
 * Sweeps {unvirtualized, virtualized} x {quiet, burst}:
 *
 *  - baseline: the seed dispatch plane — one shared FIFO into the
 *    RX rings. The bully's burst pins the rings full, so an innocent
 *    tenant's requests queue behind (and get dropped with) the
 *    flood;
 *
 *  - tenant-vf: the TenantTable plane — per-tenant admission caps,
 *    mqueue quotas and WRR traffic classes. The bully is clamped to
 *    its quota of ring slots and its cap of in-flight requests;
 *    excess arrivals are rejected-and-counted, and the victim's
 *    class keeps its weighted share of every placement round.
 *
 * Self-check (non-zero exit on violation): the bully's 10x burst
 * must move the victim's p99 by < 5% with the tenant plane on (at
 * undiminished victim goodput — a flat tail over a starved sample
 * would prove nothing), the unvirtualized baseline must be visibly
 * harmed by the same burst — a >= 1.25x p99 regression, or outright
 * starvation (completions collapse / timeouts) when the flood pins
 * the shared tag table and the victim's requests are dropped — the
 * bully's rejections must be counted (the SLA knob is live), and
 * byte-validation failures must stay 0 in every cell —
 * virtualization may defer or reject, never corrupt.
 *
 * Writes BENCH_multitenant.json; `--fast` shrinks the window for CI
 * smoke use.
 */


#include "common.hh"

#include "lynx/tenant.hh"
#include "pcie/fabric.hh"
#include "sim/task.hh"

using namespace lynxbench;

namespace {

/** Background population: hundreds of tenants, Zipf-skewed. */
constexpr int kBackgroundTenants = 200;
constexpr double kZipfSkew = 1.0;

/** Aggregate background offered load, requests/second. Sized to
 *  ~45% of the ring-service capacity (4 rings x ~60 us/request):
 *  healthy queueing, no standing congestion. */
constexpr double kBackgroundRps = 30'000.0;

/** The bully's steady rate. Deliberately above its quota-clamped
 *  service share, so its ring footprint is identical in the quiet
 *  and burst cells — the burst changes only how much gets rejected,
 *  which is exactly the isolation claim under test. */
constexpr double kBullyQuietRps = 14'000.0;
constexpr double kBurstFactor = 10.0;

/** Echo processing time per request: makes the accelerator rings
 *  (not the SNIC ARM dispatch cores) the contended resource, so the
 *  contention lives where the quotas do. */
constexpr sim::Tick kProcTime = 50_us;

constexpr std::size_t kVictimPayload = 256;

core::TenantId kVictimTenant = 0; ///< assigned at registration
core::TenantId kBullyTenant = 0;
constexpr core::TenantId kFirstBackgroundTenant = 3;

std::vector<std::uint8_t>
victimPayloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(kVictimPayload);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 181 + b * 37 + 3);
    return p;
}

/** Open-loop Poisson sender multiplexing kBackgroundTenants tenant
 *  ids from one NIC, ranks drawn Zipf(kZipfSkew) per request — two
 *  hundred VFs without two hundred simulated client machines. With
 *  @p virtualized off every request is the default VF's, drawn from
 *  the same random stream. */
sim::Task
zipfBackground(sim::Simulator &s, net::Nic &nic, net::Address target,
               double rps, sim::Tick until, std::uint64_t seed,
               bool virtualized)
{
    sim::Rng rng(seed);
    sim::ZipfDist zipf(kBackgroundTenants, kZipfSkew);
    const double meanGapNs = 1e9 / rps;
    std::uint64_t seq = 0;
    while (s.now() < until) {
        co_await sim::sleep(
            1 + static_cast<sim::Tick>(rng.exponential(meanGapNs)));
        net::Message m;
        m.src = {nic.node(), 45000};
        m.dst = target;
        m.payload.assign(64, 0x5b);
        m.seq = seq++;
        auto rank = static_cast<core::TenantId>(kFirstBackgroundTenant +
                                                zipf(rng));
        m.tenant = virtualized ? rank : core::kDefaultVf;
        co_await nic.send(std::move(m));
    }
}

/** Discard background echo responses so the endpoint queue drains. */
sim::Task
drainResponses(net::Endpoint &ep)
{
    for (;;)
        co_await ep.recv();
}

struct TenantCell
{
    RunResult victim;
    std::uint64_t bullyRejected = 0;
    std::uint64_t bullyAdmitted = 0;
    std::uint64_t victimRejected = 0;
    std::uint64_t dispatcherRejects = 0;
};

/**
 * One deployment: a Bluefield fronting one local GPU with 4 echo
 * rings, 200 Zipf background tenants, the bully (burst or quiet) and
 * one closed-loop byte-validating victim.
 */
TenantCell
measure(bool virtualized, double bullyRps, bool fast)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    pcie::Fabric fabric(s, "server0.pcie");
    accel::Gpu gpu(s, "gpu0", fabric);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    if (virtualized) {
        cfg.tenancy.autoRegister = true; // background VFs on first sight
        cfg.tenancy.defaults.weight = 1;
        cfg.tenancy.defaults.maxInFlight = 8;
        cfg.tenancy.defaults.mqueueQuota = 4;
    }
    core::Runtime rt(s, cfg);

    if (virtualized) {
        // The victim's VF: a fat weight and enough quota that its 4
        // closed-loop workers are never deferred behind the plane.
        core::TenantQuota vq;
        vq.weight = 8;
        vq.maxInFlight = 0;
        vq.mqueueQuota = 8;
        kVictimTenant = rt.tenants().add(vq);
        // The bully's VF: one ring slot at a time, eight admitted
        // requests total — everything beyond is a counted rejection.
        core::TenantQuota bq;
        bq.weight = 1;
        bq.maxInFlight = 8;
        bq.mqueueQuota = 1;
        kBullyTenant = rt.tenants().add(bq);
    } else {
        kVictimTenant = core::kDefaultVf;
        kBullyTenant = core::kDefaultVf;
    }

    auto &accel = rt.addAccelerator("gpu0", gpu.memory(), {});
    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (auto &q : rt.makeAccelQueues(svc, accel)) {
        sim::spawn(s, apps::runEchoBlock(gpu, *q, kProcTime));
        queues.push_back(std::move(q));
    }
    rt.start();

    sim::Tick warmup = fast ? 10_ms : 20_ms;
    sim::Tick duration = fast ? 40_ms : 100_ms;
    sim::Tick until = warmup + duration;

    auto &bgNic = nw.addNic("background");
    net::Endpoint &bgEp = bgNic.bind(net::Protocol::Udp, 45000);
    sim::spawn(s, zipfBackground(s, bgNic, {bf.node(), 7000},
                                 kBackgroundRps, until, 77, virtualized));
    sim::spawn(s, drainResponses(bgEp));

    auto &bullyNic = nw.addNic("bully");
    workload::LoadGenConfig blg;
    blg.nic = &bullyNic;
    blg.target = {bf.node(), 7000};
    blg.openRate = bullyRps;
    blg.warmup = warmup;
    blg.duration = duration;
    blg.tenant = kBullyTenant;
    blg.seed = 5;
    blg.makeRequest = [](std::uint64_t, sim::Rng &) {
        return std::vector<std::uint8_t>(64, 0xb1);
    };
    workload::LoadGen bully(s, blg);

    auto &victimNic = nw.addNic("victim");
    workload::LoadGenConfig vlg;
    vlg.nic = &victimNic;
    vlg.target = {bf.node(), 7000};
    vlg.concurrency = 4;
    vlg.warmup = warmup;
    vlg.duration = duration;
    vlg.tenant = kVictimTenant;
    vlg.thinkTime = 1_ms;
    // Generous: only a genuinely dropped request times out, so the
    // latency histogram keeps the congested completions it needs to
    // show the baseline regression.
    vlg.requestTimeout = 50_ms;
    vlg.seed = 9;
    vlg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return victimPayloadFor(seq);
    };
    vlg.validate = [](const net::Message &resp) {
        return resp.payload == victimPayloadFor(resp.seq);
    };
    workload::LoadGen victim(s, vlg);

    bully.start();
    victim.start();
    s.runUntil(victim.windowEnd() + 20_ms);

    TenantCell out;
    out.victim = collect(victim);
    if (virtualized) {
        core::TenantTable &t = rt.tenants();
        out.bullyRejected =
            t.statsOf(kBullyTenant).counterValue("rejected");
        out.bullyAdmitted =
            t.statsOf(kBullyTenant).counterValue("admitted");
        out.victimRejected =
            t.statsOf(kVictimTenant).counterValue("rejected");
        out.dispatcherRejects = svc.dispatcher().stats().counterValue(
            "dropped_tenant_reject");
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");
    banner("tab_multitenant",
           "multi-tenant dispatch-plane virtualization (extension)",
           "not reported in the paper — per-tenant VFs (admission "
           "caps + mqueue quotas + WRR classes, paper §4.5 direction) "
           "must hold an innocent tenant's p99 within 5% under a "
           "10x tenant burst that visibly degrades the unvirtualized "
           "plane");
    BenchJson json("multitenant");

    std::printf("%10s | %6s | %9s | %9s | %9s | %8s | %10s | %10s\n",
                "plane", "bully", "vict p50", "vict p99", "vict tput",
                "timeouts", "bully rej", "disp rej");

    double cell[2][2] = {};        // [virtualized][burst] -> victim p99us
    std::uint64_t done[2][2] = {}; // -> victim in-window completions
    std::uint64_t touts[2][2] = {}; // -> victim timeouts
    std::uint64_t failures = 0;
    std::uint64_t burstRejections = 0;
    for (bool virtualized : {false, true}) {
        for (bool burst : {false, true}) {
            double rps = kBullyQuietRps * (burst ? kBurstFactor : 1.0);
            TenantCell c = measure(virtualized, rps, fast);
            failures += c.victim.failures;
            cell[virtualized][burst] = c.victim.p99us;
            done[virtualized][burst] = c.victim.completed;
            touts[virtualized][burst] = c.victim.timeouts;
            if (virtualized && burst)
                burstRejections = c.bullyRejected;
            std::printf("%10s | %6s | %7.1fus | %7.1fus | %6.1fKrps | "
                        "%8llu | %10llu | %10llu\n",
                        virtualized ? "tenant-vf" : "baseline",
                        burst ? "10x" : "1x", c.victim.p50us,
                        c.victim.p99us, c.victim.rps / 1e3,
                        static_cast<unsigned long long>(
                            c.victim.timeouts),
                        static_cast<unsigned long long>(
                            c.bullyRejected),
                        static_cast<unsigned long long>(
                            c.dispatcherRejects));
            json.addRow(
                {{"plane", virtualized ? "tenant-vf" : "baseline"},
                 {"bully_burst", burst},
                 {"bully_offered_rps", rps},
                 {"background_tenants", kBackgroundTenants},
                 {"victim_p50us", c.victim.p50us},
                 {"victim_p99us", c.victim.p99us},
                 {"victim_ktps", c.victim.rps / 1e3},
                 {"victim_timeouts", c.victim.timeouts},
                 {"victim_failures", c.victim.failures},
                 {"bully_admitted", c.bullyAdmitted},
                 {"bully_rejected", c.bullyRejected},
                 {"victim_rejected", c.victimRejected},
                 {"dispatcher_rejects", c.dispatcherRejects}});
        }
    }

    double basQuiet = cell[0][0], basBurst = cell[0][1];
    double vfQuiet = cell[1][0], vfBurst = cell[1][1];

    bool ok = true;
    if (failures != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu byte-validation failures — "
                     "virtualization must never corrupt\n",
                     static_cast<unsigned long long>(failures));
        ok = false;
    }
    if (vfBurst > vfQuiet * 1.05) {
        std::fprintf(stderr,
                     "FAIL: tenant-vf victim p99 moved %.1fus -> "
                     "%.1fus (> 5%%) under the 10x burst\n",
                     vfQuiet, vfBurst);
        ok = false;
    }
    if (touts[1][1] != 0 || done[1][1] * 2 <= done[1][0]) {
        std::fprintf(stderr,
                     "FAIL: tenant-vf victim goodput collapsed under "
                     "the burst (%llu -> %llu completions, %llu "
                     "timeouts) — a flat p99 over a starved sample "
                     "proves nothing\n",
                     static_cast<unsigned long long>(done[1][0]),
                     static_cast<unsigned long long>(done[1][1]),
                     static_cast<unsigned long long>(touts[1][1]));
        ok = false;
    }
    // The unvirtualized plane must be visibly harmed by the same
    // burst, in either of the two ways overload manifests: a p99
    // blowup (queueing) or outright victim starvation — the shared
    // tag table drops the victim's requests, so completions collapse
    // and the closed loop burns its whole window in timeouts. Total
    // denial is a stronger failure than a slow answer; accept both.
    bool harmed = basBurst >= basQuiet * 1.25 ||
                  done[0][1] * 2 <= done[0][0] || touts[0][1] > 0;
    if (!harmed) {
        std::fprintf(stderr,
                     "FAIL: baseline victim p99 %.1fus -> %.1fus with "
                     "%llu -> %llu completions — the burst is not "
                     "degrading the unvirtualized plane, so the sweep "
                     "proves nothing\n",
                     basQuiet, basBurst,
                     static_cast<unsigned long long>(done[0][0]),
                     static_cast<unsigned long long>(done[0][1]));
        ok = false;
    }
    if (burstRejections == 0) {
        std::fprintf(stderr,
                     "FAIL: the bully's burst was never rejected — "
                     "the admission cap (SLA knob) is not live\n");
        ok = false;
    }
    std::printf("\nself-check: vf p99 %.1fus -> %.1fus (%.1f%%), "
                "baseline p99 %.1fus -> %.1fus, baseline victim "
                "completions %llu -> %llu, bully rejections %llu "
                "[%s]\n",
                vfQuiet, vfBurst,
                vfQuiet > 0 ? (vfBurst / vfQuiet - 1.0) * 100 : 0.0,
                basQuiet, basBurst,
                static_cast<unsigned long long>(done[0][0]),
                static_cast<unsigned long long>(done[0][1]),
                static_cast<unsigned long long>(burstRejections),
                ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
}
