/**
 * @file
 * §3.2 "Interference with co-located applications" + §6.2
 * "Performance isolation".
 *
 * A GPU-accelerated vector-scale server (256-int requests) co-runs
 * with a cache-filling 1140x1140 matrix-product neighbor:
 *
 *  - host-centric server: 99th-percentile latency inflates 13x
 *    (0.13 ms -> 1.7 ms) and the matmul itself slows 21%;
 *  - Lynx on Bluefield (§6.2): "we observe no interference".
 */

#include "common.hh"

#include "host/llc.hh"

using namespace lynxbench;

namespace {

/** LLC parameters reproducing the §3.2 victim tail. */
host::LlcConfig
llcConfig()
{
    host::LlcConfig cfg;
    cfg.victimSteady = 1.35;
    cfg.burstProbability = 0.02;
    cfg.burstScale = 40.0;
    cfg.neighborSlowdown = 1.27;
    return cfg;
}

struct NoisyResult
{
    double p50us = 0, p99us = 0;
    double matmulSlowdown = 1.0;
};

/** The neighbor: repeated 1140x1140 integer matrix products. */
sim::Task
matmulNeighbor(sim::Core &core, host::LlcModel &llc,
               std::uint64_t *iterations)
{
    // ~45 ms per product on the reference core (O(n^3) int ops).
    const sim::Tick productTime = 45_ms;
    for (;;) {
        sim::Tick t = static_cast<sim::Tick>(
            static_cast<double>(productTime) * llc.neighborFactor());
        co_await core.exec(t);
        ++*iterations;
    }
}

NoisyResult
measureHostCentric(bool noisy)
{
    sim::Simulator s;
    net::Network nw(s);
    auto &client = nw.addNic("client");
    host::Node server(s, nw, "server0");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    accel::GpuDriver driver(s, gpu);
    host::LlcModel llc(llcConfig(), 0xbeef);
    llc.setNoisy(noisy);

    // Victim: vector-by-constant product on the GPU, host-centric;
    // the CPU-side request handling suffers LLC interference.
    baseline::HostServerConfig cfg;
    cfg.nic = &server.nic();
    cfg.port = 7000;
    cfg.stack = calibration::vmaXeon();
    cfg.cores = {&server.cores()[0]};
    cfg.streams = 8;
    auto handler = [&](sim::Core &core, accel::Stream &st,
                       const net::Message &req)
        -> sim::Co<std::vector<std::uint8_t>> {
        // Cache-sensitive CPU work (buffer management, copies): the
        // noisy neighbor multiplies its effective duration.
        co_await core.exec(llc.perturb(55_us));
        co_await st.memcpyH2D(core, req.size());
        co_await st.launch(core, 1, 20_us);
        co_await st.memcpyD2H(core, req.size());
        co_await st.sync(core);
        co_return req.payload.toVector();
    };
    baseline::HostCentricServer srv(s, driver, cfg, handler);
    srv.start();

    std::uint64_t matmuls = 0;
    if (noisy)
        sim::spawn(s, matmulNeighbor(server.cores()[1], llc, &matmuls));

    workload::LoadGenConfig lg;
    lg.nic = &client;
    lg.target = {server.id(), 7000};
    lg.concurrency = 1;
    lg.warmup = 20_ms;
    lg.duration = 400_ms;
    lg.thinkTime = 50_us;
    lg.requestTimeout = 100_ms;
    lg.makeRequest = [](std::uint64_t, sim::Rng &) {
        return std::vector<std::uint8_t>(256 * 4, 7);
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);

    NoisyResult r;
    r.p50us = sim::toMicroseconds(gen.latency().percentile(50));
    r.p99us = sim::toMicroseconds(gen.latency().percentile(99));
    if (noisy) {
        double expected =
            sim::toSeconds(400_ms) / sim::toSeconds(45_ms);
        r.matmulSlowdown =
            expected / std::max<double>(1.0,
                                        static_cast<double>(matmuls));
    }
    return r;
}

NoisyResult
measureLynxBluefield(bool noisy)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &client = nw.addNic("client");
    host::Node server(s, nw, "server0");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    host::LlcModel llc(llcConfig(), 0xbeef);
    llc.setNoisy(noisy);

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runVectorScaleBlock(gpu, *queues[0], 3, 20_us));
    rt.start();

    // The neighbor still hammers the *host* LLC, but no Lynx request
    // ever touches a host core.
    std::uint64_t matmuls = 0;
    if (noisy)
        sim::spawn(s, matmulNeighbor(server.cores()[1], llc, &matmuls));

    workload::LoadGenConfig lg;
    lg.nic = &client;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 1;
    lg.warmup = 20_ms;
    lg.duration = 400_ms;
    lg.thinkTime = 50_us;
    lg.makeRequest = [](std::uint64_t, sim::Rng &) {
        return std::vector<std::uint8_t>(256 * 4, 7);
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);

    NoisyResult r;
    r.p50us = sim::toMicroseconds(gen.latency().percentile(50));
    r.p99us = sim::toMicroseconds(gen.latency().percentile(99));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_noisy_neighbor",
           "GPU-server latency under a cache-filling matrix-product "
           "neighbor (§3.2) and Lynx's isolation (§6.2)",
           "host-centric p99 inflates 13x (0.13 -> 1.7 ms), matmul "
           "slows 21%; Lynx on Bluefield shows no interference");

    NoisyResult hQuiet = measureHostCentric(false);
    NoisyResult hNoisy = measureHostCentric(true);
    NoisyResult bQuiet = measureLynxBluefield(false);
    NoisyResult bNoisy = measureLynxBluefield(true);

    std::printf("%28s | %9s %9s | %10s\n", "config", "p50 [us]",
                "p99 [us]", "p99 ratio");
    std::printf("%28s | %9.0f %9.0f | %10s\n", "host-centric, quiet",
                hQuiet.p50us, hQuiet.p99us, "1.0x");
    std::printf("%28s | %9.0f %9.0f | %9.1fx\n",
                "host-centric, noisy", hNoisy.p50us, hNoisy.p99us,
                hNoisy.p99us / hQuiet.p99us);
    std::printf("%28s | %9.0f %9.0f | %10s\n",
                "lynx-bluefield, quiet", bQuiet.p50us, bQuiet.p99us,
                "1.0x");
    std::printf("%28s | %9.0f %9.0f | %9.2fx\n",
                "lynx-bluefield, noisy", bNoisy.p50us, bNoisy.p99us,
                bNoisy.p99us / bQuiet.p99us);
    std::printf("\nmatmul neighbor slowdown next to the host-centric "
                "server: %.0f%% (paper: 21%%)\n",
                (hNoisy.matmulSlowdown - 1) * 100);
    return 0;
}
