/**
 * @file
 * cluster_steady and cluster_overload: four Lynx machines, each a
 * Bluefield fronting one GPU with four 32-slot echo rings (50 us per
 * request) and dispatch-plane admission armed at 0.45 tag occupancy,
 * behind one open-loop Poisson population of a million logical
 * clients on 256 source ports. Clients are routed to a home machine
 * by a consistent-hash ring and to an mqueue by Toeplitz RSS.
 *
 * At 0.6x of aggregate ring capacity the admission gate is armed but
 * idle (the place path); at 1.5x most arrivals beyond capacity take
 * the shed path. The two share every line of dispatcher code, so a
 * change that helps one path at the other's cost shows on one of them.
 */

#include <memory>
#include <string>

#include "harness.hh"
#include "echo_payload.hh"

#include "apps/gpu_services.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "net/steering.hh"
#include "pcie/fabric.hh"
#include "snic/bluefield.hh"

namespace lynxperf {

namespace {

constexpr int kMachines = 4;
constexpr int kRingsPerMachine = 4;
constexpr sim::Tick kProcTime = 50_us;
constexpr double kMachineCapacityRps =
    kRingsPerMachine * 1e9 / static_cast<double>(kProcTime);
constexpr int kOpenPorts = 256;
constexpr std::uint64_t kLogicalClients = 1'000'000;
constexpr sim::Tick kWarmup = 20_ms;
constexpr sim::Tick kTimeout = 10_ms;
constexpr sim::Tick kSlo = 5_ms;
constexpr std::uint16_t kPort = 7000;

/** One Lynx machine; the runtime is torn down before its devices. */
struct Machine
{
    std::unique_ptr<snic::Bluefield> bf;
    std::unique_ptr<pcie::Fabric> fabric;
    std::unique_ptr<accel::Gpu> gpu;
    std::unique_ptr<core::Runtime> rt;
    std::vector<std::unique_ptr<core::AccelQueue>> queues;
};

class Cluster : public World
{
  public:
    Cluster(std::uint64_t seed, double loadFactor, sim::Tick window,
            SetupTimes &st)
        : seed_(seed)
    {
        {
            PhaseTimer t(st, Phase::Net);
            nw_ = std::make_unique<net::Network>(sim);
        }
        for (int i = 0; i < kMachines; ++i)
            machines_.push_back(buildMachine(i, st));

        PhaseTimer t(st, Phase::Workload);
        net::steer::ConsistentHashRing ring;
        std::vector<std::uint32_t> nodes;
        for (int i = 0; i < kMachines; ++i) {
            ring.add(static_cast<std::uint64_t>(i));
            nodes.push_back(machines_[static_cast<std::size_t>(i)]
                                ->bf->node());
        }
        workload::LoadGenConfig lg;
        lg.nic = &nw_->addNic("clients");
        lg.target = {nodes[0], kPort};
        lg.openRate = loadFactor * kMachineCapacityRps * kMachines;
        lg.openPorts = kOpenPorts;
        lg.logicalClients = kLogicalClients;
        lg.warmup = kWarmup;
        lg.duration = window;
        lg.requestTimeout = kTimeout;
        lg.slo = kSlo;
        lg.seed = mix(seed, 0);
        lg.routeTarget = [ring, nodes](std::uint64_t clientId) {
            return net::Address{
                nodes[static_cast<std::size_t>(ring.route(clientId))],
                kPort};
        };
        std::uint64_t key = mix(seed, 100);
        probe.attach(
            lg, sim,
            [key](std::uint64_t seq) { return echoPayload(key, seq); },
            [key](const net::Message &resp) {
                return resp.payload == echoPayload(key, resp.seq);
            });
        gen_ = std::make_unique<workload::LoadGen>(sim, lg);
        gen_->start();
        gens.push_back(gen_.get());

        // Past the window every straggler completes or passes its
        // deadline, so the ledger's in-flight term drains to zero.
        shape = {.openLoop = true,
                 .rss = true,
                 .warmup = kWarmup,
                 .window = window,
                 .end = gen_->windowEnd() + kTimeout + 10_ms};
        for (auto &m : machines_) {
            addSnicCores(m->bf->cores());
            gpus.push_back(m->gpu.get());
        }
    }

    double
    appHostUsPerReq(bool &ok) override
    {
        return echoAppHostUs(mix(seed_, 100), ok);
    }

  private:
    std::unique_ptr<Machine>
    buildMachine(int i, SetupTimes &st)
    {
        auto m = std::make_unique<Machine>();
        std::string id = std::to_string(i);
        {
            PhaseTimer t(st, Phase::Snic);
            m->bf = std::make_unique<snic::Bluefield>(sim, *nw_, "bf" + id);
        }
        {
            PhaseTimer t(st, Phase::Accel);
            m->fabric =
                std::make_unique<pcie::Fabric>(sim, "server" + id + ".pcie");
            m->gpu =
                std::make_unique<accel::Gpu>(sim, "gpu" + id, *m->fabric);
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            core::RuntimeConfig cfg = m->bf->lynxRuntimeConfig();
            cfg.admission.enabled = true;
            // A serial echo worker holds at most ~ringSlots+1 of its
            // 2x-ring tag table (~0.52 occupancy): shed at the ring
            // knee so overload is refused up front, not at the ring.
            cfg.admission.shedOccupancy = 0.45;
            m->rt = std::make_unique<core::Runtime>(sim, cfg);
            auto &accel =
                m->rt->addAccelerator("gpu" + id, m->gpu->memory(), {});
            core::ServiceConfig scfg;
            scfg.name = "echo" + id;
            scfg.port = kPort;
            scfg.queuesPerAccel = kRingsPerMachine;
            scfg.ringSlots = 32;
            scfg.policy = core::DispatchPolicy::Rss;
            auto &svc = m->rt->addService(scfg);
            m->queues = m->rt->makeAccelQueues(svc, accel);
        }
        {
            PhaseTimer t(st, Phase::Apps);
            for (auto &q : m->queues)
                sim::spawn(sim, apps::runEchoBlock(*m->gpu, *q, kProcTime));
        }
        PhaseTimer t(st, Phase::Lynx);
        m->rt->start();
        return m;
    }

    std::uint64_t seed_;
    std::unique_ptr<net::Network> nw_;
    std::vector<std::unique_ptr<Machine>> machines_;
    std::unique_ptr<workload::LoadGen> gen_;
};

} // namespace

std::unique_ptr<World>
buildClusterSteady(std::uint64_t seed, SetupTimes &st)
{
    return std::make_unique<Cluster>(seed, 0.6, 7000_ms, st);
}

std::unique_ptr<World>
buildClusterOverload(std::uint64_t seed, SetupTimes &st)
{
    return std::make_unique<Cluster>(seed, 1.5, 3200_ms, st);
}

} // namespace lynxperf
