/**
 * @file
 * facever_backend: the paper's §6.4 face-verification server on Lynx
 * on Bluefield. 28 GPU workers each poll a server mqueue, fetch the
 * enrolled face for the claimed label from a memcached tier (a 2-core
 * host holding 64 faces) through their own TCP client mqueue, run the
 * LBP compare and answer one byte. This is the only workload where the
 * accelerator starts I/O, so client mqueues drive the forwarder and
 * mqueue code in the other direction.
 */

#include <memory>
#include <string>

#include "harness.hh"

#include "apps/gpu_services.hh"
#include "apps/kvstore.hh"
#include "host/node.hh"
#include "lynx/calibration.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"

namespace lynxperf {

namespace {

constexpr int kWorkers = 28; // paper: 28 server mqueues
constexpr std::uint32_t kPersons = 64;
constexpr std::size_t kRequestPool = 256;
constexpr sim::Tick kWarmup = 10_ms;
constexpr sim::Tick kWindow = 1350_ms;
constexpr sim::Tick kTimeout = 400_ms;
/** Mean exponential think time, about one round trip: the clients
 *  load the service to ~87% of its peak. With no think time the
 *  saturated loop locks into a seed-dependent pattern of per-queue
 *  backlogs, and p99 moves by ~17% from one seed to the next. */
constexpr sim::Tick kThink = 1_ms;
constexpr std::uint16_t kPort = 7100;
constexpr std::uint16_t kKvPort = 11211;

class FaceverBackend : public World
{
  public:
    FaceverBackend(std::uint64_t seed, SetupTimes &st)
    {
        {
            PhaseTimer t(st, Phase::Apps);
            for (std::uint32_t p = 0; p < kPersons; ++p)
                kv_.set(workload::faceLabel(p), workload::synthFace(p, 0));
        }
        {
            // Half the probes show the claimed person, half a random
            // one, so both match and no-match answers are checked.
            PhaseTimer t(st, Phase::Workload);
            sim::Rng rng(mix(seed, 1));
            for (std::size_t i = 0; i < kRequestPool; ++i) {
                auto claim = static_cast<std::uint32_t>(rng.below(kPersons));
                auto probe = rng.chance(0.5) ? claim
                                             : static_cast<std::uint32_t>(
                                                   rng.below(kPersons));
                std::string label = workload::faceLabel(claim);
                std::vector<std::uint8_t> req(label.begin(), label.end());
                auto img = workload::synthFace(probe, rng.next());
                req.insert(req.end(), img.begin(), img.end());
                requests_.push_back(std::move(req));
                labels_.push_back(std::move(label));
            }
        }
        {
            PhaseTimer t(st, Phase::Apps);
            for (std::size_t i = 0; i < kRequestPool; ++i)
                expected_.push_back(static_cast<std::uint8_t>(
                    apps::faceVerDecide(requests_[i], kv_.get(labels_[i]))));
        }
        {
            PhaseTimer t(st, Phase::Net);
            nw_ = std::make_unique<net::Network>(sim);
            clientNic_ = &nw_->addNic("client");
            dbHost_ = std::make_unique<host::Node>(sim, *nw_, "db-host");
        }
        {
            PhaseTimer t(st, Phase::Snic);
            bf_ = std::make_unique<snic::Bluefield>(sim, *nw_, "bf0");
        }
        {
            PhaseTimer t(st, Phase::Apps);
            apps::KvServerConfig kcfg;
            kcfg.nic = &dbHost_->nic();
            kcfg.port = kKvPort;
            kcfg.proto = net::Protocol::Tcp;
            kcfg.stack = calibration::backendTcpXeon();
            kcfg.cores = {&dbHost_->cores()[0], &dbHost_->cores()[1]};
            kcfg.opCost = calibration::memcachedOpCostXeon;
            kvServer_ = std::make_unique<apps::KvServer>(sim, kv_, kcfg);
            kvServer_->start();
        }
        {
            PhaseTimer t(st, Phase::Accel);
            fabric_ = std::make_unique<pcie::Fabric>(sim, "pcie");
            gpu_ = std::make_unique<accel::Gpu>(sim, "k40m", *fabric_);
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            rt_ = std::make_unique<core::Runtime>(sim,
                                                  bf_->lynxRuntimeConfig());
            auto &accel = rt_->addAccelerator("k40m", gpu_->memory(), {});
            core::ServiceConfig scfg;
            scfg.name = "facever";
            scfg.port = kPort;
            scfg.queuesPerAccel = kWorkers;
            auto &svc = rt_->addService(scfg);
            serverQs_ = rt_->makeAccelQueues(svc, accel);
            net::Address backend{dbHost_->id(), kKvPort};
            for (int i = 0; i < kWorkers; ++i) {
                auto ref = rt_->addClientQueue(accel,
                                               "db.cq" + std::to_string(i),
                                               backend, net::Protocol::Tcp);
                dbQs_.push_back(rt_->makeAccelQueue(ref));
            }
        }
        {
            PhaseTimer t(st, Phase::Apps);
            for (std::size_t i = 0; i < serverQs_.size(); ++i)
                sim::spawn(sim, apps::runFaceVerWorker(*gpu_, *serverQs_[i],
                                                       *dbQs_[i]));
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            rt_->start();
        }
        PhaseTimer t(st, Phase::Workload);
        workload::LoadGenConfig lg;
        lg.nic = clientNic_;
        lg.target = {bf_->node(), kPort};
        lg.concurrency = 2 * kWorkers;
        lg.warmup = kWarmup;
        lg.duration = kWindow;
        lg.requestTimeout = kTimeout;
        lg.thinkTime = kThink;
        lg.seed = mix(seed, 0);
        std::uint64_t key = mix(seed, 100);
        probe.attach(
            lg, sim,
            [this, key](std::uint64_t seq) {
                return requests_[mix(key, seq) % kRequestPool];
            },
            [this, key](const net::Message &resp) {
                return resp.payload.size() == 1 &&
                       resp.payload[0] ==
                           expected_[mix(key, resp.seq) % kRequestPool];
            });
        gen_ = std::make_unique<workload::LoadGen>(sim, lg);
        gen_->start();
        gens.push_back(gen_.get());
        shape = {.openLoop = false,
                 .rss = false,
                 .warmup = kWarmup,
                 .window = kWindow,
                 .end = gen_->windowEnd() + 20_ms};
        addSnicCores(bf_->cores());
        gpus.push_back(gpu_.get());
    }

    double
    appHostUsPerReq(bool &ok) override
    {
        // The service's per-request compute: the LBP distance against
        // the enrolled face and the thresholded decision.
        std::vector<std::uint8_t> answers;
        answers.reserve(kRequestPool);
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < kRequestPool; ++i)
            answers.push_back(static_cast<std::uint8_t>(
                apps::faceVerDecide(requests_[i], kv_.get(labels_[i]))));
        double us =
            secondsSince(t0) * 1e6 / static_cast<double>(kRequestPool);
        ok = ok && answers == expected_;
        return us;
    }

  private:
    apps::KvStore kv_;
    std::vector<std::vector<std::uint8_t>> requests_;
    std::vector<std::string> labels_;
    std::vector<std::uint8_t> expected_;
    std::unique_ptr<net::Network> nw_;
    net::Nic *clientNic_ = nullptr;
    std::unique_ptr<host::Node> dbHost_;
    std::unique_ptr<snic::Bluefield> bf_;
    std::unique_ptr<apps::KvServer> kvServer_;
    std::unique_ptr<pcie::Fabric> fabric_;
    std::unique_ptr<accel::Gpu> gpu_;
    std::unique_ptr<core::Runtime> rt_;
    std::vector<std::unique_ptr<core::AccelQueue>> serverQs_, dbQs_;
    std::unique_ptr<workload::LoadGen> gen_;
};

} // namespace

std::unique_ptr<World>
buildFaceverBackend(std::uint64_t seed, SetupTimes &st)
{
    return std::make_unique<FaceverBackend>(seed, st);
}

} // namespace lynxperf
