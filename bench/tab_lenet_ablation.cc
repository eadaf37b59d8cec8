/**
 * @file
 * Ablation — design choices of the LeNet persistent-kernel service:
 *
 *  - dynamic parallelism (per-layer child kernels, §6.3) vs a single
 *    fused kernel (what TVM's kernel-fusion optimization strives
 *    for, §3.1): how much do the 7 device-side launches cost?
 *  - child kernel footprint (blocks per layer kernel): LeNet kernels
 *    saturate the device, which is why inference is serial per GPU;
 *    smaller hypothetical kernels would overlap requests.
 */

#include "common.hh"

#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

RunResult
measure(apps::LenetServiceConfig lcfg, int concurrency)
{
    sim::Simulator s;
    net::Network network(s);
    snic::Bluefield bf(s, network, "bf0");
    auto &clientNic = network.addNic("client");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    apps::LeNet model;

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    // One server mqueue per potential concurrent inference.
    scfg.queuesPerAccel = std::max(1, concurrency / 2);
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, apps::runLenetServer(gpu, *q, model, lcfg));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = concurrency;
    lg.warmup = 20_ms;
    lg.duration = 200_ms;
    lg.requestTimeout = 400_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        return workload::synthMnist(static_cast<int>(seq % 10), seq);
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 20_ms);
    return collect(gen);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_lenet_ablation",
           "LeNet service design ablations (Lynx on Bluefield)",
           "per-layer dynamic parallelism costs a few us per request "
           "vs a fused kernel; device-saturating kernels serialize "
           "inference (the 3.6 Kreq/s single-GPU ceiling)");

    apps::LenetServiceConfig perLayer; // 7 child kernels, 200 blocks
    apps::LenetServiceConfig fused = perLayer;
    fused.dynamicParallelism = false;

    std::printf("-- launch granularity (1 outstanding request) --\n");
    std::printf("%26s | %9s | %9s\n", "variant", "req/s", "p50 [us]");
    RunResult a = measure(perLayer, 1);
    RunResult b = measure(fused, 1);
    std::printf("%26s | %9.0f | %9.0f\n", "7 per-layer kernels", a.rps,
                a.p50us);
    std::printf("%26s | %9.0f | %9.0f\n", "single fused kernel", b.rps,
                b.p50us);
    std::printf("dynamic-parallelism cost: %.1f us/request "
                "(6 extra device launches)\n\n",
                a.p50us - b.p50us);

    std::printf("-- kernel footprint (8 outstanding requests) --\n");
    std::printf("%26s | %9s | %9s\n", "blocks per layer kernel",
                "req/s", "p50 [us]");
    for (int blocks : {200, 120, 60, 30}) {
        apps::LenetServiceConfig cfg;
        cfg.childBlocks = blocks;
        RunResult r = measure(cfg, 8);
        std::printf("%26d | %9.0f | %9.0f\n", blocks, r.rps, r.p50us);
    }
    std::printf("\n200-block kernels saturate the 240-slot device: "
                "one inference at a time. Smaller kernels would "
                "overlap requests — the efficiency the paper's "
                "multi-GPU scaleout buys differently (more GPUs, one "
                "stream each).\n");
    return 0;
}
