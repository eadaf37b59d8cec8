/**
 * @file
 * Graceful-degradation table (extension — see docs/INTERNALS.md §7):
 * how the fault-injection & failover machinery trades throughput for
 * correctness. Two sweeps on the Bluefield deployment, one local +
 * one remote GPU (loss sweep) and N GPUs with one remote victim
 * (failover sweep):
 *
 *  - throughput / tail latency vs fabric+RDMA loss rate: every drop
 *    costs client timeouts and RDMA retransmits, so Ktps falls and
 *    p99 explodes — but not one response fails byte-for-byte
 *    validation (the failures column must stay 0);
 *
 *  - throughput with 1-dead-of-N accelerators: a partitioned remote
 *    GPU is declared dead and its work re-queued, so steady-state
 *    throughput degrades to roughly the surviving (N-1)/N share of
 *    the healthy run instead of collapsing or corrupting.
 *
 * Writes BENCH_tab_degradation.json; `--fast` shrinks the run for CI
 * smoke use.
 */


#include "common.hh"

#include "pcie/fabric.hh"
#include "rdma/qp.hh"
#include "sim/fault.hh"

using namespace lynxbench;

namespace {

/** Request payload as a pure function of the sequence number, so the
 *  validator can recompute the expected bytes from the response. */
std::vector<std::uint8_t>
payloadFor(std::uint64_t seq)
{
    std::vector<std::uint8_t> p(64);
    for (std::size_t b = 0; b < p.size(); ++b)
        p[b] = static_cast<std::uint8_t>(seq * 131 + b * 17 + 7);
    return p;
}

/** One echo deployment with failover enabled: one local GPU plus one
 *  remote GPU behind @p plan (bound to the fabric and the remote
 *  QP). Extra GPUs (for the failover sweep) are local. */
struct DegradationRun
{
    RunResult r;
    std::uint64_t died = 0;
    std::uint64_t revived = 0;
    std::uint64_t requeued = 0;
};

DegradationRun
measure(int gpus, sim::FaultConfig fc, bool partitionRemote,
        sim::Tick procTime, int concurrency, bool fast)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    host::Node remoteHost(s, nw, "server1");
    pcie::Fabric localFabric(s, "server0.pcie");

    std::vector<std::unique_ptr<accel::Gpu>> gpuPool;
    for (int g = 0; g < gpus; ++g) {
        bool remote = g == gpus - 1; // last GPU is the remote victim
        gpuPool.push_back(std::make_unique<accel::Gpu>(
            s, "gpu" + std::to_string(g),
            remote ? remoteHost.fabric() : localFabric));
    }

    sim::FaultPlan plan(fc);
    if (partitionRemote)
        plan.partition(bf.node(), remoteHost.id(), 2_ms, 100_s);
    nw.setFaultPlan(&plan);

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    cfg.mq.retry = calibration::rdmaSwRetryPolicy();
    core::Runtime rt(s, cfg);
    rdma::RdmaPathModel lp;
    auto remotePath =
        lp.viaNetwork(calibration::rdmaRemoteExtraOneWay);
    std::vector<core::AccelHandle *> handles;
    for (int g = 0; g < gpus; ++g) {
        bool remote = g == gpus - 1;
        handles.push_back(&rt.addAccelerator(
            gpuPool[static_cast<std::size_t>(g)]->name(),
            gpuPool[static_cast<std::size_t>(g)]->memory(),
            remote ? remotePath : lp));
        if (remote) {
            rdma::QpFaultBinding fb;
            fb.plan = &plan;
            fb.initiator = bf.node();
            fb.target = remoteHost.id();
            handles.back()->qp().bindFaults(fb);
        }
    }

    core::ServiceConfig scfg;
    scfg.name = "echo";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (int g = 0; g < gpus; ++g) {
        auto qs = rt.makeAccelQueues(
            svc, *handles[static_cast<std::size_t>(g)]);
        for (auto &q : qs) {
            sim::spawn(s, apps::runEchoBlock(
                              *gpuPool[static_cast<std::size_t>(g)],
                              *q, procTime));
            queues.push_back(std::move(q));
        }
    }
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = concurrency;
    lg.warmup = fast ? 2_ms : 5_ms;
    lg.duration = fast ? 12_ms : 60_ms;
    lg.requestTimeout = 2_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return payloadFor(seq);
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload == payloadFor(resp.seq);
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 5_ms);

    DegradationRun out;
    out.r = collect(gen);
    for (const auto &mon : rt.monitors()) {
        out.died += mon->stats().counterValue("mqueues_died");
        out.revived += mon->stats().counterValue("mqueues_revived");
        out.requeued += mon->stats().counterValue("requests_requeued");
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");
    banner("tab_degradation",
           "graceful degradation under faults (extension)",
           "not reported in the paper — the failover extension must "
           "trade throughput, never correctness: failures stay 0 at "
           "every loss rate, and 1-dead-of-N keeps ~(N-1)/N of the "
           "healthy throughput");
    BenchJson json("tab_degradation");

    // Sweep 1: throughput/latency vs fabric+RDMA loss rate.
    std::vector<double> rates =
        fast ? std::vector<double>{0.0, 0.02, 0.08}
             : std::vector<double>{0.0, 0.005, 0.01, 0.02, 0.05, 0.1};
    std::printf("%9s | %8s | %8s | %8s | %8s | %8s\n", "loss", "Ktps",
                "p50 us", "p99 us", "timeouts", "failures");
    for (double rate : rates) {
        sim::FaultConfig fc;
        fc.dropRate = rate;
        DegradationRun d = measure(2, fc, /*partitionRemote=*/false,
                                   4_us, 16, fast);
        std::printf("%8.1f%% | %8.1f | %8.1f | %8.1f | %8llu | %8llu\n",
                    rate * 100, d.r.rps / 1e3, d.r.p50us, d.r.p99us,
                    static_cast<unsigned long long>(d.r.timeouts),
                    static_cast<unsigned long long>(d.r.failures));
        json.addRow({{"sweep", "loss"},
                     {"rate", rate},
                     {"ktps", d.r.rps / 1e3},
                     {"p50us", d.r.p50us},
                     {"p99us", d.r.p99us},
                     {"timeouts", d.r.timeouts},
                     {"failures", d.r.failures}});
    }

    // Sweep 2: 1 dead (partitioned, never healed) of N accelerators.
    std::printf("\n%6s | %12s | %12s | %7s | %7s | %8s\n", "GPUs",
                "healthy Ktps", "1-dead Ktps", "ratio", "ideal",
                "failures");
    std::vector<int> fleet = fast ? std::vector<int>{2, 4}
                                  : std::vector<int>{2, 4, 8};
    for (int n : fleet) {
        // Saturating closed loop so throughput tracks capacity.
        sim::Tick procTime = 64_us;
        int conc = 6 * n;
        DegradationRun healthy =
            measure(n, {}, /*partitionRemote=*/false, procTime, conc,
                    fast);
        DegradationRun dead =
            measure(n, {}, /*partitionRemote=*/true, procTime, conc,
                    fast);
        double ratio = dead.r.rps / healthy.r.rps;
        double ideal = static_cast<double>(n - 1) / n;
        std::printf("%6d | %12.1f | %12.1f | %6.2f | %6.2f | %8llu\n",
                    n, healthy.r.rps / 1e3, dead.r.rps / 1e3, ratio,
                    ideal,
                    static_cast<unsigned long long>(
                        dead.r.failures + healthy.r.failures));
        json.addRow({{"sweep", "dead"},
                     {"gpus", n},
                     {"healthy_ktps", healthy.r.rps / 1e3},
                     {"dead_ktps", dead.r.rps / 1e3},
                     {"ratio", ratio},
                     {"ideal", ideal},
                     {"died", dead.died},
                     {"requeued", dead.requeued},
                     {"failures", dead.r.failures + healthy.r.failures}});
    }
    return 0;
}
