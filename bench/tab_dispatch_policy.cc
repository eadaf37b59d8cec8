/**
 * @file
 * Ablation — dispatching policies (paper §4.2: "load balancing for
 * stateless services, or steering messages to specific queues for
 * stateful ones").
 *
 * Round-robin balances any client mix across mqueues; source-hash
 * gives a client queue affinity (stateful services) at the price of
 * imbalance when few clients dominate.
 */

#include "common.hh"

using namespace lynxbench;

namespace {

struct PolicyResult
{
    RunResult run;
    double maxQueueShare = 0; // busiest queue's share of messages
};

PolicyResult
measure(core::DispatchPolicy policy, int clients)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    core::Runtime rt(s, bf.lynxRuntimeConfig());
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.port = 7000;
    scfg.queuesPerAccel = 8;
    scfg.policy = policy;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, apps::runEchoBlock(gpu, *q, 50_us));
    rt.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {bf.node(), 7000};
    lg.concurrency = clients;
    lg.warmup = 10_ms;
    lg.duration = 100_ms;
    lg.requestTimeout = 300_ms;
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);

    PolicyResult r;
    r.run = collect(gen);
    std::uint64_t total = 0, top = 0;
    for (auto &q : queues) {
        std::uint64_t n = q->stats().counterValue("rx_msgs");
        total += n;
        top = std::max(top, n);
    }
    r.maxQueueShare =
        total ? static_cast<double>(top) / static_cast<double>(total)
              : 0;
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_dispatch_policy",
           "dispatching policy ablation: round-robin vs source-hash "
           "steering, 8 mqueues, 50 us requests",
           "round-robin load-balances stateless services; hash "
           "steering pins clients to queues (stateful) and skews "
           "under few clients");

    std::printf("%12s %8s | %9s | %9s | %14s\n", "policy", "clients",
                "req/s", "p99 [us]", "busiest queue");
    for (int clients : {2, 16}) {
        for (auto policy : {core::DispatchPolicy::RoundRobin,
                            core::DispatchPolicy::SourceHash}) {
            PolicyResult r = measure(policy, clients);
            std::printf("%12s %8d | %9.0f | %9.0f | %13.0f%%\n",
                        policy == core::DispatchPolicy::RoundRobin
                            ? "round-robin"
                            : "source-hash",
                        clients, r.run.rps, r.run.p99us,
                        r.maxQueueShare * 100);
        }
    }
    std::printf("\nideal balance over 8 queues = 12.5%%; source-hash "
                "with 2 clients concentrates traffic (affinity), "
                "round-robin stays balanced regardless.\n");
    return 0;
}
