/**
 * @file
 * Incast congestion table (extension — see DESIGN.md §8): N senders
 * converge on the Bluefield's ingress link while one closed-loop
 * victim flow shares the bottleneck. Sweeps fan-in × offered load
 * over two fabric modes:
 *
 *  - baseline: finite egress queue, tail-drop only (no ECN, no
 *    DCQCN, no PFC) — the queue pins full, the victim eats ~1 ms of
 *    standing queue and a drop-proportional timeout rate;
 *
 *  - dcqcn: RED-style ECN marking on the congested port + DCQCN rate
 *    control on every sender + PFC on the mqueue rings — senders
 *    back off to their fair share, the queue sits in the ECN band,
 *    and the victim's tail and drop rate both collapse.
 *
 * Self-check (non-zero exit on violation): at 16-to-1 fan-in and
 * 1.5x the measured saturation load, the dcqcn mode must beat the
 * baseline on BOTH victim p99 and victim drop rate (and the baseline
 * must actually be dropping — otherwise the sweep is not exercising
 * congestion at all). Byte-validation failures must stay 0 in every
 * cell: congestion may delay or drop, never corrupt.
 *
 * Writes BENCH_incast.json; `--fast` shrinks to the self-check cell
 * for CI smoke use.
 */


#include "common.hh"

#include "pcie/fabric.hh"

using namespace lynxbench;

namespace {

/** The deliberately narrow server ingress link, Gb/s. Slower than
 *  every client NIC (40 Gb/s default), so the switch egress port in
 *  front of the server is the shared bottleneck — the classic incast
 *  topology. Narrow enough (~61 Krps at 1 KiB) that the wire, not
 *  the SNIC's ARM cores (~120 Krps echo ceiling), saturates first:
 *  the congestion under test must live in the fabric. */
constexpr double kBottleneckGbps = 0.5;

/** Request/response payload size. Large enough that serialization
 *  (16.4 us at 0.5 Gb/s) dominates fixed per-hop latencies. */
constexpr std::size_t kPayloadBytes = 1024;

/** Request payload as a pure function of the sequence number, so the
 *  validator can recompute the expected bytes from the response. */
std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(kPayloadBytes);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 197 + b * 31 + 5);
    return p;
}

/** Fabric-mode knobs under test. */
enum class Mode { Baseline, Dcqcn };

const char *
modeName(Mode m)
{
    return m == Mode::Baseline ? "baseline" : "dcqcn";
}

net::CongestionConfig
congestionFor(Mode m)
{
    net::CongestionConfig cc;
    cc.enabled = true; // finite egress queue + tail-drop in both modes
    // Scale the queue to the narrow link: 128 KiB drains in ~2.1 ms
    // at 0.5 Gb/s (a full tail-drop queue costs the victim ~2 ms of
    // standing delay, well inside its 5 ms timeout), with the ECN
    // band at 4-16 KiB (~65-260 us).
    cc.egressQueueBytes = 128 * 1024;
    cc.ecnKminBytes = 4 * 1024;
    cc.ecnKmaxBytes = 16 * 1024;
    if (m == Mode::Dcqcn) {
        cc.ecnEnabled = true;
        cc.dcqcnEnabled = true;
        // DCQCN constants scale with the link: the rate floor must
        // sit well below the 16-flow fair share (0.031 Gb/s here) or
        // the aggregate can never drop under capacity, and the
        // additive-increase step must be a small fraction of that
        // share or recovery instantly overshoots it.
        cc.dcqcn.lineRateGbps = kBottleneckGbps;
        cc.dcqcn.minRateGbps = kBottleneckGbps / 50;
        cc.dcqcn.aiGbps = kBottleneckGbps / 100;
        cc.dcqcn.haiGbps = kBottleneckGbps / 20;
        // The stock 55/100 us timers are tuned for 10-40 Gb/s
        // fabrics; at 0.5 Gb/s a flow's packet interval exceeds the
        // rate timer, so recovery outruns the CNP feedback and the
        // queue oscillates into tail-drop. Stretch both 5x.
        cc.dcqcn.alphaTimer = 275_us;
        cc.dcqcn.rateTimer = 500_us;
        cc.pfc.enabled = true;
    }
    return cc;
}

/** One victim-flow measurement plus fabric-side congestion counters. */
struct IncastRun
{
    RunResult victim;
    double dropRate = 0; ///< victim timeouts / (completed + timeouts)
    std::uint64_t ecnMarked = 0;
    std::uint64_t egressDrops = 0;
    std::uint64_t cnpSent = 0;
    std::uint64_t mqOverflow = 0;
    std::uint64_t pfcPauses = 0;
};

/**
 * One echo deployment behind the narrow link: a Bluefield whose NIC
 * is the kBottleneckGbps bottleneck, one local GPU running 4 echo
 * rings.
 * `aggressors` open-loop senders push `offeredRps` in aggregate while
 * one closed-loop victim (4 workers) measures what the fabric does
 * to an innocent flow. `offeredRps` 0 = calibration (victim only,
 * closed loop at high concurrency, measuring the saturation rate).
 */
IncastRun
measure(Mode mode, int aggressors, double offeredRps,
        int victimConcurrency, bool fast)
{
    sim::Simulator s;

    net::NetworkConfig ncfg;
    ncfg.congestion = congestionFor(mode);
    net::Network nw(s, ncfg);

    snic::BluefieldConfig bfc;
    bfc.nic.gbps = kBottleneckGbps;
    snic::Bluefield bf(s, nw, "bf0", bfc);

    pcie::Fabric fabric(s, "server0.pcie");
    accel::Gpu gpu(s, "gpu0", fabric);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("gpu0", gpu.memory(), {});

    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    scfg.queuesPerAccel = 4;
    scfg.ringSlots = 32;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (auto &q : rt.makeAccelQueues(svc, accel)) {
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 2_us));
        queues.push_back(std::move(q));
    }
    rt.start();

    sim::Tick warmup = fast ? 10_ms : 20_ms;
    sim::Tick duration = fast ? 40_ms : 100_ms;

    // Open-loop aggressors: each on its own NIC, together offering
    // `offeredRps` into the shared bottleneck regardless of how the
    // fabric treats them.
    std::vector<std::unique_ptr<workload::LoadGen>> agg;
    for (int a = 0; a < aggressors; ++a) {
        auto &nic = nw.addNic("agg" + std::to_string(a));
        workload::LoadGenConfig lg;
        lg.nic = &nic;
        lg.target = {bf.node(), 7000};
        lg.openRate = offeredRps / aggressors;
        lg.warmup = warmup;
        lg.duration = duration;
        lg.makeRequest = [](std::uint64_t, sim::Rng &) {
            return std::vector<std::uint8_t>(kPayloadBytes, 0xa5);
        };
        lg.seed = 100 + static_cast<std::uint64_t>(a);
        agg.push_back(std::make_unique<workload::LoadGen>(s, lg));
    }

    // The victim: closed loop, byte-validated responses, a timeout
    // budget generous enough that only real congestion loss fires it.
    auto &victimNic = nw.addNic("victim");
    workload::LoadGenConfig lg;
    lg.nic = &victimNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = victimConcurrency;
    lg.warmup = warmup;
    lg.duration = duration;
    lg.requestTimeout = 5_ms;
    // Under incast the victim is a mouse flow: think time keeps its
    // demand under the 16-flow fair share, so a well-behaved fabric
    // owes it full service — any p99 inflation or drop is pure
    // collateral damage from the aggressors. The calibration run
    // (no aggressors) instead hammers at full closed-loop speed.
    if (aggressors > 0)
        lg.thinkTime = 1_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    workload::LoadGen victim(s, lg);

    for (auto &g : agg)
        g->start();
    victim.start();
    s.runUntil(victim.windowEnd() + 10_ms);

    IncastRun out;
    out.victim = collect(victim);
    double finished = static_cast<double>(out.victim.completed +
                                          out.victim.timeouts);
    out.dropRate = finished > 0
                       ? static_cast<double>(out.victim.timeouts) /
                             finished
                       : 0.0;
    out.ecnMarked = nw.ecnStats().counterValue("marked");
    out.egressDrops = nw.ecnStats().counterValue("egress_drops");
    out.cnpSent = nw.ecnStats().counterValue("cnp_sent");
    for (const auto &mq : rt.mqueues()) {
        out.mqOverflow += mq->stats().counterValue("overflow");
        out.pfcPauses += mq->stats().counterValue("pfc_pauses");
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");
    banner("tab_incast",
           "incast congestion: ECN/DCQCN + PFC vs tail-drop "
           "(extension)",
           "not reported in the paper — RoCEv2-style congestion "
           "control (DCQCN, SIGCOMM'15) must protect a victim flow "
           "under N-to-1 incast: with it on, victim p99 and drop "
           "rate both beat the uncontrolled tail-drop fabric");
    BenchJson json("incast");

    // Calibrate the bottleneck's saturation throughput: a closed
    // loop deep enough to keep the narrow wire busy, but shallow
    // enough (32 KiB in flight < 64 KiB queue) never to overflow the
    // egress queue — no drops, pure capacity.
    IncastRun cal = measure(Mode::Baseline, 0, 0.0, 32, fast);
    double satRps = cal.victim.rps;
    std::printf("saturation (closed-loop, no incast): %.1f Krps\n\n",
                satRps / 1e3);

    std::vector<int> fans = fast ? std::vector<int>{16}
                                 : std::vector<int>{4, 8, 16};
    std::vector<double> loads = fast ? std::vector<double>{1.5}
                                     : std::vector<double>{0.8, 1.5,
                                                           2.0};

    std::printf("%6s | %5s | %9s | %9s | %9s | %7s | %9s | %8s | %8s\n",
                "fan-in", "load", "mode", "vict p50", "vict p99",
                "drop%", "ecn marks", "q drops", "pfc");
    double basP99 = 0, basDrop = 0, dcqP99 = 0, dcqDrop = 0;
    std::uint64_t failures = 0;
    for (int fan : fans) {
        for (double load : loads) {
            for (Mode mode : {Mode::Baseline, Mode::Dcqcn}) {
                IncastRun r =
                    measure(mode, fan, load * satRps, 4, fast);
                failures += r.victim.failures;
                std::printf("%6d | %5.1f | %9s | %7.1fus | %7.1fus | "
                            "%6.2f%% | %9llu | %8llu | %8llu\n",
                            fan, load, modeName(mode),
                            r.victim.p50us, r.victim.p99us,
                            r.dropRate * 100,
                            static_cast<unsigned long long>(
                                r.ecnMarked),
                            static_cast<unsigned long long>(
                                r.egressDrops),
                            static_cast<unsigned long long>(
                                r.pfcPauses));
                json.addRow(
                    {{"fan_in", fan},
                     {"load", load},
                     {"mode", modeName(mode)},
                     {"victim_p50us", r.victim.p50us},
                     {"victim_p99us", r.victim.p99us},
                     {"victim_drop_rate", r.dropRate},
                     {"victim_ktps", r.victim.rps / 1e3},
                     {"ecn_marked", r.ecnMarked},
                     {"egress_drops", r.egressDrops},
                     {"cnp_sent", r.cnpSent},
                     {"mq_overflow", r.mqOverflow},
                     {"pfc_pauses", r.pfcPauses},
                     {"failures", r.victim.failures}});
                if (fan == 16 && load == 1.5) {
                    (mode == Mode::Baseline ? basP99 : dcqP99) =
                        r.victim.p99us;
                    (mode == Mode::Baseline ? basDrop : dcqDrop) =
                        r.dropRate;
                }
            }
        }
    }

    // Self-check on the headline cell (16-to-1, 1.5x saturation).
    bool ok = true;
    if (failures != 0) {
        std::fprintf(stderr,
                     "FAIL: %llu byte-validation failures — "
                     "congestion must never corrupt\n",
                     static_cast<unsigned long long>(failures));
        ok = false;
    }
    if (basDrop <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: tail-drop baseline never dropped at "
                     "16-to-1 x1.5 — sweep is not congesting\n");
        ok = false;
    }
    if (dcqP99 >= basP99) {
        std::fprintf(stderr,
                     "FAIL: dcqcn victim p99 %.1fus >= baseline "
                     "%.1fus\n",
                     dcqP99, basP99);
        ok = false;
    }
    if (dcqDrop >= basDrop) {
        std::fprintf(stderr,
                     "FAIL: dcqcn victim drop rate %.4f >= baseline "
                     "%.4f\n",
                     dcqDrop, basDrop);
        ok = false;
    }
    std::printf("\nself-check (16-to-1, 1.5x): p99 %.1fus -> %.1fus, "
                "drops %.2f%% -> %.2f%% [%s]\n",
                basP99, dcqP99, basDrop * 100, dcqDrop * 100,
                ok ? "OK" : "FAIL");
    return ok ? 0 : 1;
}
