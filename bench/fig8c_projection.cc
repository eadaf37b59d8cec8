/**
 * @file
 * Figure 8c — "Scalability projection with Lynx": how many LeNet
 * GPUs one Lynx instance can drive before its network processing
 * saturates, for UDP and TCP, on Bluefield vs a single Xeon core.
 *
 * Uses the paper's emulation methodology (§6.3): each "GPU" is a
 * kernel with a single thread that blocks for the LeNet execution
 * time, one mqueue per GPU ("the emulation results precisely match
 * the performance of Lynx on 12 real GPUs").
 */

#include "common.hh"

using namespace lynxbench;

namespace {

double
measure(bool bluefield, net::Protocol proto, int nGpus)
{
    sim::Simulator s;
    net::Network network(s);
    auto &client0 = network.addNic("client0");
    auto &client1 = network.addNic("client1");
    host::Node serverHost(s, network, "server0");
    pcie::Fabric fabric(s, "pcie");

    // Emulated GPUs: tiny device-memory footprint, one mqueue each.
    // (Declared before the Runtime: the runtime's mqueue watchpoints
    // must be torn down before the device memories they watch.)
    accel::GpuConfig emu;
    emu.blockSlots = 4;
    emu.memBytes = 1ull << 20;
    std::vector<std::unique_ptr<accel::Gpu>> gpus;

    std::unique_ptr<snic::Bluefield> bf;
    core::RuntimeConfig cfg;
    std::uint32_t serverNode;
    if (bluefield) {
        bf = std::make_unique<snic::Bluefield>(s, network, "bf0");
        cfg = bf->lynxRuntimeConfig();
        serverNode = bf->node();
    } else {
        cfg = snic::hostRuntimeConfig({&serverHost.cores()[0]},
                                      serverHost.nic());
        serverNode = serverHost.id();
    }
    core::Runtime rt(s, cfg);
    std::vector<core::AccelHandle *> handles;
    for (int g = 0; g < nGpus; ++g) {
        gpus.push_back(std::make_unique<accel::Gpu>(
            s, "emu" + std::to_string(g), fabric, emu));
        handles.push_back(&rt.addAccelerator(gpus.back()->name(),
                                             gpus.back()->memory(),
                                             rdma::RdmaPathModel{}));
    }
    core::ServiceConfig scfg;
    scfg.name = "lenet-emu";
    scfg.port = 7000;
    scfg.proto = proto;
    auto &svc = rt.addService(scfg);
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
    for (int g = 0; g < nGpus; ++g) {
        auto qs = rt.makeAccelQueues(svc, *handles[
            static_cast<std::size_t>(g)]);
        // Reply with 1 byte, like the real LeNet service.
        sim::spawn(s, apps::runEchoBlock(
                          *gpus[static_cast<std::size_t>(g)], *qs[0],
                          calibration::lenetTotal(), 1));
        queues.push_back(std::move(qs[0]));
    }
    rt.start();

    auto makeGen = [&](net::Nic *nic, int conc, std::uint64_t seed) {
        workload::LoadGenConfig lg;
        lg.nic = nic;
        lg.target = {serverNode, 7000};
        lg.proto = proto;
        lg.concurrency = conc;
        lg.warmup = 10_ms;
        lg.duration = 120_ms;
        lg.seed = seed;
        lg.requestTimeout = 400_ms;
        lg.makeRequest = [](std::uint64_t, sim::Rng &) {
            // LeNet-sized requests (28x28 image).
            return std::vector<std::uint8_t>(784, 0x11);
        };
        return std::make_unique<workload::LoadGen>(s, lg);
    };
    // 2 outstanding per GPU, split over two client machines.
    auto g0 = makeGen(&client0, nGpus, 5);
    auto g1 = makeGen(&client1, nGpus, 7);
    g0->start();
    g1->start();
    s.runUntil(g0->windowEnd() + 20_ms);
    return g0->throughputRps() + g1->throughputRps();
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("fig8c", "multi-GPU scalability projection (emulated LeNet "
                    "GPUs, one mqueue each)",
           "linear until Lynx saturates: UDP ~102 GPUs on Bluefield "
           "vs ~74 on one Xeon core; TCP ~15 vs ~7 GPUs");

    const int counts[] = {7, 15, 30, 45, 60, 75, 90, 105};
    const double perGpu = 3500.0; // ideal req/s per emulated GPU

    std::printf("%6s | %13s %13s | %13s %13s\n", "GPUs", "udp-bf",
                "udp-xeon1", "tcp-bf", "tcp-xeon1");
    std::printf("%6s | %13s %13s | %13s %13s   (kreq/s, *=saturated)\n",
                "", "", "", "", "");
    for (int n : counts) {
        std::printf("%6d |", n);
        for (auto [bf, proto] :
             {std::pair{true, net::Protocol::Udp},
              std::pair{false, net::Protocol::Udp},
              std::pair{true, net::Protocol::Tcp},
              std::pair{false, net::Protocol::Tcp}}) {
            double rps = measure(bf, proto, n);
            bool saturated = rps < 0.93 * perGpu * n;
            std::printf(" %11.1fk%s", rps / 1000.0,
                        saturated ? "*" : " ");
            if (!bf && proto == net::Protocol::Udp)
                std::printf(" |");
        }
        std::printf("\n");
    }
    std::printf("\nlinear region ends where '*' starts; paper: "
                "UDP 102 (BF) / 74 (Xeon core); TCP 15 / 7.\n");
    return 0;
}
