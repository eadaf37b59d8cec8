/**
 * @file
 * Accelerator-side dynamic request batching (extension beyond the
 * paper): batch size × offered load for the LeNet inference service
 * on Lynx. Batching drains the mqueue with recvBatch, classifies the
 * whole batch with one child-kernel sequence (occupancy-aware
 * duration), and commits the responses with sendBatch.
 *
 * Every response is verified byte-for-byte against the model's
 * classification of the request image (the echoed request seq indexes
 * a precomputed expected-digit table), so the throughput numbers
 * double as an end-to-end correctness check of the batched path.
 *
 * Self-checks (non-zero exit on violation):
 *  - at saturation, batch >= 8 reaches >= 2x the unbatched
 *    throughput;
 *  - at low load (concurrency 1), batching leaves p99 latency within
 *    1.5x of unbatched (the idle ring serves immediately);
 *  - zero validation failures and timeouts everywhere.
 */

#include "common.hh"


#include "workload/datagen.hh"

using namespace lynxbench;

namespace {

constexpr std::size_t kImagePool = 64;

struct BatchRun
{
    int batch = 1;
    int concurrency = 1;
    RunResult result;
};

BatchRun
measure(const apps::LeNet &model,
        const std::vector<std::vector<std::uint8_t>> &images,
        const std::vector<std::uint8_t> &expected, int batch,
        int concurrency, sim::Tick warmup, sim::Tick duration)
{
    sim::Simulator s;
    net::Network network(s);
    auto &clientNic = network.addNic("client");
    host::Node serverHost(s, network, "server0");
    pcie::Fabric fabric(s, "server0.pcie");
    accel::Gpu gpu(s, "k40m", fabric);

    auto cfg = snic::hostRuntimeConfig({&serverHost.cores()[0]},
                                       serverHost.nic());
    core::Runtime runtime(s, cfg);
    auto &accel = runtime.addAccelerator("k40m", gpu.memory(),
                                         rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "lenet";
    scfg.port = 7000;
    scfg.ringSlots = 64; // roomy ring so backlog can form batches
    auto &svc = runtime.addService(scfg);
    auto queues = runtime.makeAccelQueues(svc, accel);
    apps::LenetServiceConfig lcfg;
    lcfg.maxBatch = batch;
    lcfg.batchLinger = batch > 1 ? 20_us : 0;
    sim::spawn(s, apps::runLenetServer(gpu, *queues[0], model, lcfg));
    runtime.start();

    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = {serverHost.id(), 7000};
    lg.concurrency = concurrency;
    lg.warmup = warmup;
    lg.duration = duration;
    lg.requestTimeout = 500_ms;
    lg.makeRequest = [&images](std::uint64_t seq, sim::Rng &) {
        return images[seq % kImagePool];
    };
    lg.validate = [&expected](const net::Message &resp) {
        return resp.payload.size() == 1 &&
               resp.payload[0] == expected[resp.seq % kImagePool];
    };
    workload::LoadGen gen(s, lg);
    gen.start();
    s.runUntil(gen.windowEnd() + 20_ms);

    BatchRun run;
    run.batch = batch;
    run.concurrency = concurrency;
    run.result = collect(gen);
    return run;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");

    banner("gpu_batching",
           "accelerator-side dynamic request batching: LeNet "
           "throughput/latency, batch size x offered load",
           "extension beyond the paper; expectation: >= 2x "
           "throughput at saturation for batch >= 8, unchanged "
           "low-load latency");

    apps::LeNet model;
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<std::uint8_t> expected;
    for (std::size_t i = 0; i < kImagePool; ++i) {
        images.push_back(
            workload::synthMnist(static_cast<int>(i % 10), i));
        expected.push_back(
            static_cast<std::uint8_t>(model.classify(images.back())));
    }

    const std::vector<int> batches =
        fast ? std::vector<int>{1, 8} : std::vector<int>{1, 2, 4, 8, 16};
    const std::vector<int> concs =
        fast ? std::vector<int>{1, 16} : std::vector<int>{1, 8, 32};
    const sim::Tick warmup = fast ? 10_ms : 20_ms;
    const sim::Tick duration = fast ? 120_ms : 400_ms;

    BenchJson json("gpu_batching");
    std::printf("%6s %6s | %10s | %8s %8s %8s | %9s\n", "batch",
                "conc", "req/s", "p50[us]", "p90[us]", "p99[us]",
                "bad/tmo");

    // runs[batch index][concurrency index]
    std::vector<std::vector<BatchRun>> runs;
    std::uint64_t badTotal = 0;
    for (int b : batches) {
        runs.emplace_back();
        for (int c : concs) {
            BatchRun r = measure(model, images, expected, b, c, warmup,
                                 duration);
            std::printf("%6d %6d | %10.0f | %8.0f %8.0f %8.0f | %4llu/%-4llu\n",
                        b, c, r.result.rps, r.result.p50us,
                        r.result.p90us, r.result.p99us,
                        static_cast<unsigned long long>(
                            r.result.failures),
                        static_cast<unsigned long long>(
                            r.result.timeouts));
            json.addRow({{"batch", b},
                         {"concurrency", c},
                         {"rps", r.result.rps},
                         {"p50us", r.result.p50us},
                         {"p90us", r.result.p90us},
                         {"p99us", r.result.p99us},
                         {"completed", r.result.completed},
                         {"failures", r.result.failures},
                         {"timeouts", r.result.timeouts}});
            badTotal += r.result.failures + r.result.timeouts;
            runs.back().push_back(r);
        }
    }

    // Self-checks.
    int violations = 0;
    const std::size_t satIdx = concs.size() - 1;
    const double rps1 = runs.front()[satIdx].result.rps;
    for (std::size_t bi = 0; bi < batches.size(); ++bi) {
        if (batches[bi] < 8)
            continue;
        double speedup = runs[bi][satIdx].result.rps / rps1;
        std::printf("batch %d at saturation (conc %d): %.2fx "
                    "unbatched throughput\n",
                    batches[bi], concs[satIdx], speedup);
        if (speedup < 2.0) {
            std::printf("VIOLATION: batch %d speedup %.2fx < 2x\n",
                        batches[bi], speedup);
            ++violations;
        }
    }
    const double p99Unbatched = runs.front()[0].result.p99us;
    for (std::size_t bi = 1; bi < batches.size(); ++bi) {
        double p99 = runs[bi][0].result.p99us;
        if (p99 > 1.5 * p99Unbatched) {
            std::printf("VIOLATION: batch %d low-load p99 %.0f us > "
                        "1.5x unbatched %.0f us\n",
                        batches[bi], p99, p99Unbatched);
            ++violations;
        }
    }
    std::printf("low-load p99: unbatched %.0f us, batched worst "
                "%.0f us\n",
                p99Unbatched,
                [&] {
                    double w = 0;
                    for (std::size_t bi = 1; bi < batches.size(); ++bi)
                        w = std::max(w, runs[bi][0].result.p99us);
                    return w;
                }());
    if (badTotal != 0) {
        std::printf("VIOLATION: %llu validation failures/timeouts\n",
                    static_cast<unsigned long long>(badTotal));
        ++violations;
    }
    return violations == 0 ? 0 : 1;
}
