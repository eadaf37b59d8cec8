/**
 * @file
 * echo_fanout: the paper's Fig. 6 headline point. Lynx on Bluefield
 * serves a 20 us echo kernel behind 240 server mqueues, driven by a
 * closed loop of 482 clients over two client NICs at the highest
 * message rate the deployment sustains. Nearly all host work is the
 * per-message data path (engine, net, dispatcher, rdma, mqueue, gio,
 * forwarder); the application itself only copies 64 bytes.
 */

#include <memory>

#include "harness.hh"
#include "echo_payload.hh"

#include "apps/gpu_services.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "snic/bluefield.hh"

namespace lynxperf {

namespace {

constexpr int kQueues = 240;
constexpr int kClients = 2 * kQueues + 2;
constexpr sim::Tick kProcTime = 20_us;
constexpr sim::Tick kWarmup = 5_ms;
constexpr sim::Tick kWindow = 550_ms;
constexpr sim::Tick kTimeout = 200_ms;
/** Mean exponential think time: decorrelates the closed-loop clients
 *  (the seed drives it), far below the round trip. */
constexpr sim::Tick kThink = 1_us;
constexpr std::uint16_t kPort = 7000;

class EchoFanout : public World
{
  public:
    EchoFanout(std::uint64_t seed, SetupTimes &st) : seed_(seed)
    {
        {
            PhaseTimer t(st, Phase::Net);
            nw_ = std::make_unique<net::Network>(sim);
            clientNics_[0] = &nw_->addNic("client0");
            clientNics_[1] = &nw_->addNic("client1");
        }
        {
            PhaseTimer t(st, Phase::Snic);
            bf_ = std::make_unique<snic::Bluefield>(sim, *nw_, "bf0");
        }
        {
            PhaseTimer t(st, Phase::Accel);
            fabric_ = std::make_unique<pcie::Fabric>(sim, "server0.pcie");
            gpu_ = std::make_unique<accel::Gpu>(sim, "k40m", *fabric_);
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            rt_ = std::make_unique<core::Runtime>(sim,
                                                  bf_->lynxRuntimeConfig());
            auto &accel = rt_->addAccelerator("k40m", gpu_->memory(), {});
            core::ServiceConfig scfg;
            scfg.name = "echo";
            scfg.port = kPort;
            scfg.queuesPerAccel = kQueues;
            auto &svc = rt_->addService(scfg);
            queues_ = rt_->makeAccelQueues(svc, accel);
        }
        {
            PhaseTimer t(st, Phase::Apps);
            for (auto &q : queues_)
                sim::spawn(sim, apps::runEchoBlock(*gpu_, *q, kProcTime));
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            rt_->start();
        }
        {
            PhaseTimer t(st, Phase::Workload);
            for (int g = 0; g < 2; ++g) {
                workload::LoadGenConfig lg;
                lg.nic = clientNics_[g];
                lg.target = {bf_->node(), kPort};
                lg.concurrency = kClients / 2;
                lg.warmup = kWarmup;
                lg.duration = kWindow;
                lg.requestTimeout = kTimeout;
                lg.thinkTime = kThink;
                lg.seed = mix(seed, static_cast<std::uint64_t>(g));
                std::uint64_t key = mix(seed, 100 + g);
                probe.attach(
                    lg, sim,
                    [key](std::uint64_t seq) { return echoPayload(key, seq); },
                    [key](const net::Message &resp) {
                        return resp.payload == echoPayload(key, resp.seq);
                    });
                gens_[g] = std::make_unique<workload::LoadGen>(sim, lg);
                gens_[g]->start();
                gens.push_back(gens_[g].get());
            }
        }
        shape = {.openLoop = false,
                 .rss = false,
                 .warmup = kWarmup,
                 .window = kWindow,
                 .end = gens_[0]->windowEnd() + 10_ms};
        addSnicCores(bf_->cores());
        gpus.push_back(gpu_.get());
    }

    double
    appHostUsPerReq(bool &ok) override
    {
        return echoAppHostUs(mix(seed_, 100), ok);
    }

  private:
    std::uint64_t seed_;
    std::unique_ptr<net::Network> nw_;
    net::Nic *clientNics_[2] = {};
    std::unique_ptr<snic::Bluefield> bf_;
    std::unique_ptr<pcie::Fabric> fabric_;
    std::unique_ptr<accel::Gpu> gpu_;
    std::unique_ptr<core::Runtime> rt_;
    std::vector<std::unique_ptr<core::AccelQueue>> queues_;
    std::unique_ptr<workload::LoadGen> gens_[2];
};

} // namespace

std::unique_ptr<World>
buildEchoFanout(std::uint64_t seed, SetupTimes &st)
{
    return std::make_unique<EchoFanout>(seed, st);
}

} // namespace lynxperf
