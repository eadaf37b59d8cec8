/**
 * @file
 * §5.1.1 ablation — the VMA user-level network stack vs the Linux
 * kernel stack, for minimum-size UDP echoes on both Lynx placements.
 *
 * Paper: "ARM cores on Bluefield incur high system call cost ... For
 * minimum-size UDP packets VMA reduces the processing latency by a
 * factor of 4. The library is also efficient on the host CPU
 * resulting in 2x UDP latency reduction."
 */

#include "common.hh"

using namespace lynxbench;

namespace {

struct StackResult
{
    double p50us = 0;
    double stackUs = 0; // pure rx+tx stack cost, min-size message
};

StackResult
measure(bool bluefield, bool vma)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &client = nw.addNic("client");
    host::Node server(s, nw, "server0");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    core::RuntimeConfig cfg =
        bluefield ? bf.lynxRuntimeConfig()
                  : snic::hostRuntimeConfig(
                        {&server.cores()[0], &server.cores()[1],
                         &server.cores()[2], &server.cores()[3],
                         &server.cores()[4], &server.cores()[5]},
                        server.nic());
    if (!vma) {
        cfg.stack = bluefield ? calibration::kernelBluefield()
                              : calibration::kernelXeon();
    }
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    sim::spawn(s, apps::runEchoBlock(gpu, *queues[0], 0));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &client;
    lg.target = {bluefield ? bf.node() : server.id(), 7000};
    lg.concurrency = 1;
    lg.warmup = 5_ms;
    lg.duration = 80_ms;
    lg.thinkTime = 50_us;
    lg.makeRequest = [](std::uint64_t, sim::Rng &) {
        return std::vector<std::uint8_t>(16, 1); // min-size message
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 5_ms);

    StackResult r;
    r.p50us = sim::toMicroseconds(gen.latency().percentile(50));
    r.stackUs = sim::toMicroseconds(
        cfg.stack.cost(net::Protocol::Udp, net::Dir::Recv, 16) +
        cfg.stack.cost(net::Protocol::Udp, net::Dir::Send, 16));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_vma_stack",
           "kernel stack vs VMA (kernel bypass) for minimum-size UDP",
           "VMA cuts UDP processing latency 4x on Bluefield and 2x on "
           "the host");

    std::printf("%12s %8s | %14s | %10s\n", "platform", "stack",
                "stack rx+tx[us]", "e2e p50[us]");
    StackResult r[4];
    int i = 0;
    for (bool bluefield : {false, true}) {
        for (bool vma : {false, true}) {
            r[i] = measure(bluefield, vma);
            std::printf("%12s %8s | %14.2f | %10.1f\n",
                        bluefield ? "bluefield" : "xeon6",
                        vma ? "vma" : "kernel", r[i].stackUs,
                        r[i].p50us);
            ++i;
        }
    }
    std::printf("\nprocessing-latency reduction from VMA: host %.1fx "
                "(paper 2x), bluefield %.1fx (paper 4x)\n",
                r[0].stackUs / r[1].stackUs, r[2].stackUs / r[3].stackUs);
    return 0;
}
