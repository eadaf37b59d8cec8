/**
 * @file
 * Figure 8b — "Lynx scaleout to remote GPUs": a single Bluefield
 * drives 4 local K80s, then 4+4 and 4+8 with the extra GPUs in one
 * or two remote machines. The paper reports linear scaling (~3300
 * req/s per K80) and ~8 us of added latency for remote GPUs.
 */

#include "common.hh"

#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

struct ScaleResult
{
    RunResult result;
    double localP50 = 0, remoteP50 = 0;
};

ScaleResult
measure(int localGpus, int remoteGpus)
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    auto &clientNic = network.addNic("client");
    apps::LeNet model;

    accel::GpuConfig k80;
    k80.blockSlots = 208;
    k80.clockScale = calibration::k80ClockScale;
    k80.memBytes = 4ull << 20;

    // Local server + up to two remote servers with 4 GPUs each.
    std::vector<std::unique_ptr<host::Node>> servers;
    std::vector<std::unique_ptr<accel::Gpu>> gpus;
    std::vector<bool> isRemote;
    int nServers = 1 + (remoteGpus + 3) / 4;
    for (int m = 0; m < nServers; ++m) {
        servers.push_back(std::make_unique<host::Node>(
            s, network, "server" + std::to_string(m)));
    }
    for (int g = 0; g < localGpus + remoteGpus; ++g) {
        int m = g < localGpus ? 0 : 1 + (g - localGpus) / 4;
        gpus.push_back(std::make_unique<accel::Gpu>(
            s, "k80-" + std::to_string(g), servers[static_cast<
                std::size_t>(m)]->fabric(), k80));
        isRemote.push_back(m != 0);
    }

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    rdma::RdmaPathModel local;
    auto remote = local.viaNetwork(calibration::rdmaRemoteExtraOneWay);
    std::vector<core::AccelHandle *> handles;
    for (std::size_t g = 0; g < gpus.size(); ++g) {
        handles.push_back(&rt.addAccelerator(
            gpus[g]->name(), gpus[g]->memory(),
            isRemote[g] ? remote : local));
    }
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);

    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (std::size_t g = 0; g < gpus.size(); ++g) {
        auto qs = rt.makeAccelQueues(svc, *handles[g]);
        sim::spawn(s, apps::runLenetServer(*gpus[g], *qs[0], model));
        for (auto &q : qs)
            queues.push_back(std::move(q));
    }
    rt.start();

    int total = localGpus + remoteGpus;
    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = 2 * total;
    lg.warmup = 20_ms;
    lg.duration = 200_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return workload::synthMnist(static_cast<int>(seq % 10), seq);
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);

    ScaleResult r;
    r.result = collect(gen);
    return r;
}

/** Unloaded local-vs-remote latency comparison (one of each). */
void
latencyDelta()
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    auto &clientNic = network.addNic("client");
    host::Node local(s, network, "server0");
    host::Node remoteHost(s, network, "server1");
    accel::GpuConfig k80;
    k80.blockSlots = 208;
    k80.clockScale = calibration::k80ClockScale;
    k80.memBytes = 4ull << 20;
    accel::Gpu gpuL(s, "k80-local", local.fabric(), k80);
    accel::Gpu gpuR(s, "k80-remote", remoteHost.fabric(), k80);
    apps::LeNet model;

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    rdma::RdmaPathModel lp;
    auto &hl = rt.addAccelerator("l", gpuL.memory(), lp);
    auto &hr = rt.addAccelerator(
        "r", gpuR.memory(),
        lp.viaNetwork(calibration::rdmaRemoteExtraOneWay));
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto ql = rt.makeAccelQueues(svc, hl);
    auto qr = rt.makeAccelQueues(svc, hr);
    sim::spawn(s, apps::runLenetServer(gpuL, *ql[0], model));
    sim::spawn(s, apps::runLenetServer(gpuR, *qr[0], model));
    rt.start();

    auto &ep = clientNic.bind(net::Protocol::Udp, 40000);
    std::vector<double> lat;
    auto client = [&]() -> sim::Task {
        for (int i = 0; i < 8; ++i) { // round-robin local/remote
            net::Message m;
            m.src = {clientNic.node(), 40000};
            m.dst = {bf.node(), 7000};
            m.proto = net::Protocol::Udp;
            m.payload = workload::synthMnist(i, 0);
            sim::Tick t0 = s.now();
            co_await clientNic.send(std::move(m));
            (void)co_await ep.recv();
            lat.push_back(sim::toMicroseconds(s.now() - t0));
        }
    };
    sim::spawn(s, client());
    s.run();
    double localAvg = (lat[0] + lat[2] + lat[4] + lat[6]) / 4;
    double remoteAvg = (lat[1] + lat[3] + lat[5] + lat[7]) / 4;
    std::printf("\nunloaded request latency: local GPU %.1f us, remote "
                "GPU %.1f us -> +%.1f us (paper: ~8 us)\n",
                localAvg, remoteAvg, remoteAvg - localAvg);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("fig8b", "scaleout to remote GPUs (K80s across 3 machines)",
           "throughput scales linearly with the number of GPUs, "
           "regardless whether remote or local (~3300 req/s per K80); "
           "remote adds ~8 us");

    struct Config
    {
        int local, remote;
    };
    const Config configs[] = {{4, 0}, {4, 4}, {4, 8}};
    double perGpuFirst = 0;

    std::printf("%12s | %10s | %10s | %8s\n", "config", "req/s",
                "req/s/GPU", "scaling");
    for (const Config &c : configs) {
        ScaleResult r = measure(c.local, c.remote);
        int n = c.local + c.remote;
        double perGpu = r.result.rps / n;
        if (c.remote == 0)
            perGpuFirst = perGpu;
        std::printf("%2d loc %2d rem | %10.0f | %10.0f | %7.2fx\n",
                    c.local, c.remote, r.result.rps, perGpu,
                    perGpu / perGpuFirst);
    }
    latencyDelta();
    return 0;
}
