/**
 * @file
 * Figure 9 — "Illustration of the (inefficient) use of Bluefield to
 * run server workloads (memcached) vs a single Xeon core".
 *
 * Two applications share the machine: A1 = the Lynx-driven LeNet GPU
 * server, A2 = memcached. Configurations:
 *
 *   (a) memcached on all 6 host cores; LeNet managed by Bluefield;
 *   (b) memcached on 5 host cores + on Bluefield
 *       (throughput-optimized: loaded to saturation);
 *   (c) same, latency-optimized: the Bluefield instance is only
 *       allowed load meeting the Xeon's ~15 us p99 target —
 *       "this requirement cannot be satisfied";
 *   (d) reference: memcached on 6 cores with LeNet on a host core
 *       does not fit (only 5 instances + LeNet).
 *
 * Paper numbers: 250 Ktps per Xeon core @ ~15 us p99 vs 400 Ktps on
 * the whole Bluefield @ ~160 us; LeNet unaffected (3.5 K) either way.
 */

#include "common.hh"

#include "apps/kvstore.hh"
#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

struct KvResult
{
    double tput = 0;
    double p99us = 0;
};

/** One memcached instance on the given cores; closed-loop load. */
KvResult
runKvInstance(sim::Simulator &s, net::Network &nw, net::Nic &serverNic,
              std::uint16_t port, std::vector<sim::Core *> cores,
              sim::Tick opCost, net::StackProfile stack, int concurrency,
              net::Nic &clientNic, std::uint16_t clientBase,
              std::vector<std::unique_ptr<apps::KvServer>> &servers,
              std::vector<std::unique_ptr<apps::KvStore>> &stores,
              std::vector<std::unique_ptr<workload::LoadGen>> &gens)
{
    (void)nw;
    stores.push_back(std::make_unique<apps::KvStore>());
    stores.back()->set("k", {1, 2, 3, 4});
    apps::KvServerConfig cfg;
    cfg.name = "kv" + std::to_string(port);
    cfg.nic = &serverNic;
    cfg.port = port;
    cfg.proto = net::Protocol::Udp;
    cfg.stack = stack;
    cfg.cores = std::move(cores);
    cfg.opCost = opCost;
    servers.push_back(
        std::make_unique<apps::KvServer>(s, *stores.back(), cfg));
    servers.back()->start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {serverNic.node(), port};
    lg.concurrency = concurrency;
    lg.warmup = 10_ms;
    lg.duration = 100_ms;
    lg.basePort = clientBase;
    lg.makeRequest = [](std::uint64_t, sim::Rng &) {
        return apps::kvEncodeGet("k");
    };
    gens.push_back(std::make_unique<workload::LoadGen>(s, lg));
    gens.back()->start();
    return {};
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("fig9", "memcached placement: Bluefield vs host cores, "
                   "co-located with the Lynx LeNet service",
           "Bluefield: 400 Ktps but ~160 us p99; a Xeon core: "
           "250 Ktps at ~15 us p99; under a 15 us latency target the "
           "Bluefield contributes nothing; LeNet stays at 3.5 K "
           "either way");

    struct Row
    {
        const char *name;
        bool kvOnBluefield;
        int hostKvCores;
        int bfConcurrency; // closed-loop clients at the BF instance
    };
    const Row rows[] = {
        {"6 cores (LeNet on BF)", false, 6, 0},
        {"5 cores + BF (tput-opt)", true, 5, 64},
        {"5 cores + BF (latency-opt)", true, 5, 1},
    };

    std::printf("%28s | %11s %10s | %11s %10s | %10s\n", "config",
                "host [tps]", "p99 [us]", "bf [tps]", "p99 [us]",
                "lenet r/s");
    for (const Row &row : rows) {
        sim::Simulator s;
        net::Network nw(s);
        snic::Bluefield bf(s, nw, "bf0");
        auto &kvClient = nw.addNic("kv-client");
        auto &lenetClient = nw.addNic("lenet-client");
        host::Node server(s, nw, "server0");
        pcie::Fabric fabric(s, "pcie");
        accel::Gpu gpu(s, "k40m", fabric);
        apps::LeNet model;

        std::vector<std::unique_ptr<apps::KvServer>> servers;
        std::vector<std::unique_ptr<apps::KvStore>> stores;
        std::vector<std::unique_ptr<workload::LoadGen>> gens;

        // LeNet via Lynx: on the Bluefield in (a); on the 6th host
        // core when the Bluefield runs memcached.
        core::RuntimeConfig rcfg;
        if (!row.kvOnBluefield) {
            rcfg = bf.lynxRuntimeConfig();
        } else {
            rcfg = snic::hostRuntimeConfig({&server.cores()[5]},
                                           server.nic());
        }
        core::Runtime rt(s, rcfg);
        auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                        rdma::RdmaPathModel{});
        core::ServiceConfig scfg;
        scfg.name = "lenet";
        scfg.port = 7000;
        auto &svc = rt.addService(scfg);
        auto queues = rt.makeAccelQueues(svc, accel);
        sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model));
        rt.start();

        // Host memcached instances: one per core, own port.
        for (int i = 0; i < row.hostKvCores; ++i) {
            runKvInstance(s, nw, server.nic(),
                          static_cast<std::uint16_t>(11211 + i),
                          {&server.cores()[static_cast<std::size_t>(i)]},
                          calibration::memcachedOpCostXeon,
                          calibration::vmaXeon(), 4, kvClient,
                          static_cast<std::uint16_t>(40000 + 100 * i),
                          servers, stores, gens);
        }
        // Bluefield memcached instance across all 7 ARM cores.
        std::size_t bfGenIdx = gens.size();
        if (row.kvOnBluefield) {
            std::vector<sim::Core *> bfCores;
            for (std::size_t i = 0; i < bf.cores().size(); ++i)
                bfCores.push_back(&bf.cores()[i]);
            runKvInstance(s, nw, bf.nic(), 11300, bfCores,
                          calibration::memcachedOpCostArm,
                          calibration::vmaBluefield(),
                          row.bfConcurrency, kvClient, 49000, servers,
                          stores, gens);
        }

        // LeNet load.
        workload::LoadGenConfig llg;
        llg.nic = &lenetClient;
        llg.target = {row.kvOnBluefield ? server.id() : bf.node(),
                      7000};
        llg.concurrency = 1;
        llg.warmup = 10_ms;
        llg.duration = 100_ms;
        llg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
            return workload::synthMnist(static_cast<int>(seq % 10),
                                        seq);
        };
        workload::LoadGen lenetGen(s, llg);
        lenetGen.start();

        s.runUntil(130_ms);

        double hostTput = 0, hostP99 = 0;
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(row.hostKvCores); ++i) {
            hostTput += gens[i]->throughputRps();
            hostP99 = std::max(
                hostP99, sim::toMicroseconds(
                             gens[i]->latency().percentile(99)));
        }
        double bfTput = 0, bfP99 = 0;
        if (row.kvOnBluefield) {
            bfTput = gens[bfGenIdx]->throughputRps();
            bfP99 = sim::toMicroseconds(
                gens[bfGenIdx]->latency().percentile(99));
        }
        std::printf("%28s | %11.0f %10.1f | %11.0f %10.1f | %10.0f\n",
                    row.name, hostTput, hostP99, bfTput, bfP99,
                    lenetGen.throughputRps());
    }
    std::printf("\nlatency-opt row: at the ~15 us Xeon p99 target even "
                "a single outstanding request misses it on Bluefield "
                "(service time alone exceeds the target), matching the "
                "paper's 'requirement cannot be satisfied'.\n");
    return 0;
}
