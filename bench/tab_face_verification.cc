/**
 * @file
 * §6.4 — the Face Verification multi-tier server: GPU frontend + a
 * memcached image database reached over TCP.
 *
 * "Lynx achieves over 4.4x and 4.6x higher throughput for Bluefield
 * and Xeon core respectively compared to the host-centric design,
 * because the overhead of kernel invocation and GPU data transfers
 * are relatively high vs the kernel execution time (about 50 us)."
 * The host-centric version peaks at 2 CPU cores; Lynx on Bluefield is
 * ~5% slower than on a Xeon core (TCP stack on ARM).
 */

#include "common.hh"

#include "apps/kvstore.hh"
#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

constexpr int kWorkers = 28; // paper: 28 server mqueues
constexpr int kPersons = 64;

struct FvResult
{
    double rps = 0;
    double p90us = 0;
    std::uint64_t failures = 0;
};

FvResult
measure(Platform platform)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    host::Node server(s, nw, "server0");
    host::Node dbHost(s, nw, "db-host");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    // Database tier.
    apps::KvStore kv;
    for (std::uint32_t p = 0; p < kPersons; ++p)
        kv.set(workload::faceLabel(p), workload::synthFace(p, 0));
    apps::KvServerConfig kcfg;
    kcfg.nic = &dbHost.nic();
    kcfg.proto = net::Protocol::Tcp;
    kcfg.stack = calibration::backendTcpXeon();
    kcfg.cores = {&dbHost.cores()[0], &dbHost.cores()[1]};
    kcfg.opCost = calibration::memcachedOpCostXeon;
    apps::KvServer kvServer(s, kv, kcfg);
    kvServer.start();
    net::Address backend{dbHost.id(), kcfg.port};

    std::unique_ptr<accel::GpuDriver> driver;
    std::unique_ptr<baseline::HostCentricServer> hostServer;
    std::unique_ptr<core::Runtime> rt;
    std::vector<std::unique_ptr<core::AccelQueue>> serverQs, dbQs;
    std::uint32_t serverNode = server.id();

    if (platform == Platform::HostCentric) {
        driver = std::make_unique<accel::GpuDriver>(s, gpu);
        baseline::HostServerConfig cfg;
        cfg.nic = &server.nic();
        cfg.port = 7100;
        cfg.stack = calibration::vmaXeon();
        // "The host-centric implementation uses two CPU cores to
        // achieve its highest throughput." Kernels go through the
        // default stream, so GPU work serializes per request — the
        // §6.4 explanation: "the overhead of kernel invocation and
        // GPU data transfers are relatively high vs the kernel
        // execution time (about 50 us)".
        cfg.cores = {&server.cores()[0], &server.cores()[1]};
        cfg.streams = 1;
        hostServer = std::make_unique<baseline::HostCentricServer>(
            s, *driver, cfg,
            apps::hostFaceVerHandler(s, server.nic(), backend,
                                     calibration::backendTcpXeon()));
        hostServer->start();
    } else {
        core::RuntimeConfig cfg;
        if (platform == Platform::LynxBluefield) {
            cfg = bf.lynxRuntimeConfig();
            serverNode = bf.node();
        } else {
            cfg = snic::hostRuntimeConfig({&server.cores()[0]},
                                          server.nic());
        }
        rt = std::make_unique<core::Runtime>(s, cfg);
        auto &accel = rt->addAccelerator("k40m", gpu.memory(),
                                         rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "facever";
        scfg.port = 7100;
        scfg.queuesPerAccel = kWorkers;
        auto &svc = rt->addService(scfg);
        serverQs = rt->makeAccelQueues(svc, accel);
        for (int i = 0; i < kWorkers; ++i) {
            auto ref = rt->addClientQueue(
                accel, "db.cq" + std::to_string(i), backend,
                net::Protocol::Tcp);
            dbQs.push_back(rt->makeAccelQueue(ref));
            sim::spawn(s, apps::runFaceVerWorker(gpu, *serverQs[
                              static_cast<std::size_t>(i)],
                              *dbQs.back()));
        }
        rt->start();
    }

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {serverNode, 7100};
    lg.concurrency = 2 * kWorkers;
    lg.warmup = 10_ms;
    lg.duration = 100_ms;
    lg.requestTimeout = 400_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &rng) {
        std::uint32_t claim =
            static_cast<std::uint32_t>(rng.below(kPersons));
        std::uint32_t probe = rng.chance(0.5)
                                  ? claim
                                  : static_cast<std::uint32_t>(
                                        rng.below(kPersons));
        std::string label = workload::faceLabel(claim);
        auto img = workload::synthFace(probe, seq);
        std::vector<std::uint8_t> req(label.begin(), label.end());
        req.insert(req.end(), img.begin(), img.end());
        return req;
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload.size() == 1 && resp.payload[0] <= 3;
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 20_ms);

    FvResult r;
    r.rps = gen.throughputRps();
    r.p90us = sim::toMicroseconds(gen.latency().percentile(90));
    r.failures = gen.validationFailures();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_face_verification",
           "multi-tier face verification server (GPU + memcached over "
           "TCP client mqueues)",
           "Lynx over 4.4x (Bluefield) / 4.6x (Xeon core) higher "
           "throughput than host-centric; Bluefield ~5% below Xeon "
           "due to ARM TCP processing");

    FvResult host = measure(Platform::HostCentric);
    FvResult xeon = measure(Platform::LynxXeon1);
    FvResult bfr = measure(Platform::LynxBluefield);

    std::printf("%15s | %10s | %8s | %8s\n", "server", "req/s",
                "p90 [us]", "speedup");
    std::printf("%15s | %10.0f | %8.0f | %8s\n", "host-centric",
                host.rps, host.p90us, "1.0x");
    std::printf("%15s | %10.0f | %8.0f | %7.1fx\n", "lynx-xeon1",
                xeon.rps, xeon.p90us, xeon.rps / host.rps);
    std::printf("%15s | %10.0f | %8.0f | %7.1fx\n", "lynx-bluefield",
                bfr.rps, bfr.p90us, bfr.rps / host.rps);
    std::printf("\nbluefield vs xeon: %+0.1f%% (paper: ~-5%%); "
                "validation failures: %llu/%llu/%llu\n",
                (bfr.rps / xeon.rps - 1) * 100,
                static_cast<unsigned long long>(host.failures),
                static_cast<unsigned long long>(xeon.failures),
                static_cast<unsigned long long>(bfr.failures));
    return 0;
}
