/**
 * @file
 * §6.3 LeNet end-to-end performance + Figure 8a — "Latency
 * distribution at maximum throughput" for the LeNet inference
 * service: host-centric baseline vs Lynx on a Xeon core vs Lynx on
 * Bluefield, single K40m GPU, UDP requests (plus the TCP variant the
 * text reports).
 */

#include "common.hh"

#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

struct LenetRun
{
    RunResult result;
    std::vector<double> quantiles; // latency CDF samples, us
};

const double quantilePoints[] = {10, 25, 50, 75, 90, 95, 99, 99.9};

LenetRun
measure(Platform platform, net::Protocol proto)
{
    sim::Simulator s;
    net::Network network(s);
    auto &clientNic = network.addNic("client");
    host::Node serverHost(s, network, "server0");
    pcie::Fabric fabric(s, "server0.pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    apps::LeNet model;

    std::unique_ptr<snic::Bluefield> bf;
    std::unique_ptr<accel::GpuDriver> driver;
    std::unique_ptr<baseline::HostCentricServer> hostServer;
    std::unique_ptr<core::Runtime> runtime;
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    std::uint32_t serverNode = serverHost.id();

    if (platform == Platform::HostCentric) {
        driver = std::make_unique<accel::GpuDriver>(s, gpu);
        baseline::HostServerConfig cfg;
        cfg.nic = &serverHost.nic();
        cfg.port = 7000;
        cfg.proto = proto;
        cfg.stack = calibration::vmaXeon();
        cfg.cores = {&serverHost.cores()[0]};
        cfg.streams = 8;
        apps::LenetServiceConfig lcfg;
        lcfg.jitterPct = 0.08;
        hostServer = std::make_unique<baseline::HostCentricServer>(
            s, *driver, cfg, apps::hostLenetHandler(model, lcfg));
        hostServer->start();
    } else {
        core::RuntimeConfig cfg;
        if (platform == Platform::LynxBluefield) {
            bf = std::make_unique<snic::Bluefield>(s, network, "bf0");
            cfg = bf->lynxRuntimeConfig();
            serverNode = bf->node();
        } else {
            cfg = snic::hostRuntimeConfig({&serverHost.cores()[0]},
                                          serverHost.nic());
        }
        runtime = std::make_unique<core::Runtime>(s, cfg);
        auto &accel = runtime->addAccelerator("k40m", gpu.memory(),
                                              rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "lenet";
        scfg.port = 7000;
        scfg.proto = proto;
        auto &svc = runtime->addService(scfg);
        queues = runtime->makeAccelQueues(svc, accel);
        apps::LenetServiceConfig lcfg;
        lcfg.jitterPct = 0.08;
        sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model,
                                           lcfg));
        runtime->start();
    }

    // The paper's "maximum throughput" for this service is the
    // single-outstanding closed loop: latency ~= 1/throughput holds
    // in its numbers (3.5 K <-> ~290 us).
    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {serverNode, 7000};
    lg.proto = proto;
    lg.concurrency = 1;
    lg.warmup = 20_ms;
    lg.duration = 400_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return workload::synthMnist(static_cast<int>(seq % 10), seq);
    };
    lg.validate = [&model](const net::Message &resp) {
        return resp.payload.size() == 1 && resp.payload[0] < 10;
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);

    LenetRun run;
    run.result = collect(gen);
    for (double q : quantilePoints)
        run.quantiles.push_back(
            sim::toMicroseconds(gen.latency().percentile(q)));
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("fig8a", "LeNet inference service: throughput and latency "
                    "distribution at max throughput",
           "UDP: Lynx 3.5 Kreq/s on both Bluefield and Xeon vs "
           "2.8 Kreq/s host-centric (+25%); p90 295/300 us, "
           "host-centric 14% slower; GPU ceiling 3.6 Kreq/s; "
           "TCP costs ~10% (BF) / ~5% (Xeon) of throughput");

    const Platform platforms[] = {Platform::HostCentric,
                                  Platform::LynxXeon1,
                                  Platform::LynxBluefield};

    std::printf("--- UDP ---\n");
    std::printf("%15s | %10s | %8s %8s %8s\n", "server", "req/s",
                "p50[us]", "p90[us]", "p99[us]");
    LenetRun udp[3];
    for (int i = 0; i < 3; ++i) {
        udp[i] = measure(platforms[i], net::Protocol::Udp);
        std::printf("%15s | %10.0f | %8.0f %8.0f %8.0f\n",
                    platformName(platforms[i]), udp[i].result.rps,
                    udp[i].result.p50us, udp[i].result.p90us,
                    udp[i].result.p99us);
    }
    std::printf("lynx-bluefield vs host-centric: %+0.0f%% throughput "
                "(paper: +25%%)\n",
                (udp[2].result.rps / udp[0].result.rps - 1) * 100);

    std::printf("\nlatency CDF at max throughput [us]:\n%10s |", "pct");
    for (double q : quantilePoints)
        std::printf(" %7.1f", q);
    std::printf("\n");
    for (int i = 0; i < 3; ++i) {
        std::printf("%10s |", platformName(platforms[i]));
        for (double v : udp[i].quantiles)
            std::printf(" %7.0f", v);
        std::printf("\n");
    }

    std::printf("\n--- TCP ---\n");
    std::printf("%15s | %10s | %8s  (vs UDP)\n", "server", "req/s",
                "p90[us]");
    for (int i = 1; i < 3; ++i) {
        LenetRun tcp = measure(platforms[i], net::Protocol::Tcp);
        std::printf("%15s | %10.0f | %8.0f  (%+0.1f%%)\n",
                    platformName(platforms[i]), tcp.result.rps,
                    tcp.result.p90us,
                    (tcp.result.rps / udp[i].result.rps - 1) * 100);
    }
    return 0;
}
