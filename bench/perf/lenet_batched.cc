/**
 * @file
 * lenet_batched: the paper's Fig. 8 LeNet inference server on Lynx on
 * Bluefield, with accelerator-side dynamic batching (up to 8 images
 * per batched child-kernel sequence, 20 us linger, 5% kernel-time
 * jitter) behind one 64-slot ring, under an open loop at ~0.8 of the
 * GPU's inference capacity over 64 flows. The server runs the real
 * LeNet forward pass on every image, so host time is mostly model
 * compute: engine or data-path changes should barely move it, while
 * kernel and GPU-batching changes do.
 */

#include <memory>

#include "harness.hh"

#include "apps/gpu_services.hh"
#include "apps/lenet.hh"
#include "lynx/runtime.hh"
#include "net/network.hh"
#include "pcie/fabric.hh"
#include "snic/bluefield.hh"
#include "workload/datagen.hh"

namespace lynxperf {

namespace {

constexpr std::size_t kImagePool = 64;
constexpr int kMaxBatch = 8;
constexpr double kRateRps = 4000;
constexpr int kFlows = 64;
constexpr sim::Tick kWarmup = 20_ms;
constexpr sim::Tick kWindow = 2600_ms;
constexpr sim::Tick kTimeout = 50_ms;
constexpr sim::Tick kSlo = 15_ms;
constexpr std::uint16_t kPort = 7000;

class LenetBatched : public World
{
  public:
    LenetBatched(std::uint64_t seed, SetupTimes &st)
    {
        {
            PhaseTimer t(st, Phase::Workload);
            sim::Rng rng(mix(seed, 1));
            for (std::size_t i = 0; i < kImagePool; ++i)
                images_.push_back(workload::synthMnist(
                    static_cast<int>(i % 10), rng.next()));
        }
        {
            PhaseTimer t(st, Phase::Apps);
            model_ = std::make_unique<apps::LeNet>();
            for (const auto &img : images_)
                expected_.push_back(
                    static_cast<std::uint8_t>(model_->classify(img)));
        }
        {
            PhaseTimer t(st, Phase::Net);
            nw_ = std::make_unique<net::Network>(sim);
            clientNic_ = &nw_->addNic("client");
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
            scfg.name = "lenet";
            scfg.port = kPort;
            scfg.ringSlots = 64; // roomy ring so backlog can form batches
            auto &svc = rt_->addService(scfg);
            queues_ = rt_->makeAccelQueues(svc, accel);
        }
        {
            PhaseTimer t(st, Phase::Apps);
            apps::LenetServiceConfig lcfg;
            lcfg.maxBatch = kMaxBatch;
            lcfg.batchLinger = 20_us;
            lcfg.jitterPct = 0.05;
            lcfg.jitterSeed = mix(seed, 2);
            sim::spawn(sim, apps::runLenetServer(*gpu_, *queues_[0],
                                                 *model_, lcfg));
        }
        {
            PhaseTimer t(st, Phase::Lynx);
            rt_->start();
        }
        PhaseTimer t(st, Phase::Workload);
        workload::LoadGenConfig lg;
        lg.nic = clientNic_;
        lg.target = {bf_->node(), kPort};
        lg.openRate = kRateRps;
        lg.openPorts = kFlows;
        lg.warmup = kWarmup;
        lg.duration = kWindow;
        lg.requestTimeout = kTimeout;
        lg.slo = kSlo;
        lg.seed = mix(seed, 0);
        std::uint64_t key = mix(seed, 100);
        probe.attach(
            lg, sim,
            [this, key](std::uint64_t seq) {
                return images_[mix(key, seq) % kImagePool];
            },
            [this, key](const net::Message &resp) {
                return resp.payload.size() == 1 &&
                       resp.payload[0] ==
                           expected_[mix(key, resp.seq) % kImagePool];
            });
        gen_ = std::make_unique<workload::LoadGen>(sim, lg);
        gen_->start();
        gens.push_back(gen_.get());
        shape = {.openLoop = true,
                 .rss = false,
                 .warmup = kWarmup,
                 .window = kWindow,
                 .end = gen_->windowEnd() + kTimeout + 10_ms};
        addSnicCores(bf_->cores());
        gpus.push_back(gpu_.get());
    }

    double
    appHostUsPerReq(bool &ok) override
    {
        // The server's own batched call, over the pool in batches of
        // kMaxBatch.
        std::vector<std::span<const std::uint8_t>> batch;
        std::vector<int> digits;
        Clock::time_point t0 = Clock::now();
        for (std::size_t i = 0; i < kImagePool; i += kMaxBatch) {
            batch.assign(images_.begin() + static_cast<long>(i),
                         images_.begin() +
                             static_cast<long>(i + kMaxBatch));
            for (int d : model_->classifyBatch(batch))
                digits.push_back(d);
        }
        double us =
            secondsSince(t0) * 1e6 / static_cast<double>(kImagePool);
        for (std::size_t i = 0; i < kImagePool; ++i)
            ok = ok && digits[i] == expected_[i];
        return us;
    }

  private:
    std::vector<std::vector<std::uint8_t>> images_;
    std::vector<std::uint8_t> expected_;
    std::unique_ptr<apps::LeNet> model_;
    std::unique_ptr<net::Network> nw_;
    net::Nic *clientNic_ = nullptr;
    std::unique_ptr<snic::Bluefield> bf_;
    std::unique_ptr<pcie::Fabric> fabric_;
    std::unique_ptr<accel::Gpu> gpu_;
    std::unique_ptr<core::Runtime> rt_;
    std::vector<std::unique_ptr<core::AccelQueue>> queues_;
    std::unique_ptr<workload::LoadGen> gen_;
};

static_assert(kImagePool % kMaxBatch == 0);

} // namespace

std::unique_ptr<World>
buildLenetBatched(std::uint64_t seed, SetupTimes &st)
{
    return std::make_unique<LenetBatched>(seed, st);
}

} // namespace lynxperf
