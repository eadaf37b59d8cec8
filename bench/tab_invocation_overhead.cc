/**
 * @file
 * §3.2 microbenchmark — "Accelerator invocation overhead": a 4-byte
 * echo kernel with a 100 us on-GPU delay, driven host-centrically
 * (H2D copy, kernel launch, D2H copy, sync). The paper measures
 * 130 us end-to-end, i.e. ~30 us of pure GPU management overhead per
 * request, ~10% of a LeNet-scale request.
 *
 * Second section: the same 100 us request served by Lynx on
 * Bluefield, decomposed per pipeline hop with the request-tracing
 * layer (sim/span.hh). The per-stage deltas must sum exactly to the
 * measured end-to-end latency, and the non-kernel remainder must fit
 * inside the host-centric ~30 us invocation-overhead envelope —
 * both are verified and the process exits non-zero on violation.
 *
 * Flags: --fast (shorter run, CI smoke), --trace-out=FILE (Chrome
 * trace-event JSON, loadable in Perfetto), --metrics-out=FILE
 * (metrics-registry JSON snapshot).
 */

#include <fstream>
#include <string>

#include "common.hh"
#include "sim/span.hh"

using namespace lynxbench;

namespace {

/** Host-centric H2D/launch/D2H/sync sweep (§3.2 table). */
void
hostCentricSweep(BenchJson &json, bool fast)
{
    std::printf("%12s | %12s | %12s\n", "kernel [us]", "pipeline [us]",
                "overhead [us]");
    std::vector<sim::Tick> kernels = {0_us, 20_us, 100_us, 300_us,
                                      1000_us};
    if (fast)
        kernels = {0_us, 100_us};
    for (sim::Tick kernel : kernels) {
        sim::Simulator s;
        pcie::Fabric fabric(s, "pcie");
        accel::Gpu gpu(s, "k40m", fabric);
        accel::GpuDriver driver(s, gpu);
        accel::Stream stream(s, driver);
        sim::Core core(s, "xeon.0");

        sim::Tick done = 0;
        auto pipeline = [&]() -> sim::Task {
            co_await stream.memcpyH2D(core, 4);
            co_await stream.launch(core, 1, kernel);
            co_await stream.memcpyD2H(core, 4);
            co_await stream.sync(core);
            done = s.now();
        };
        sim::spawn(s, pipeline());
        s.run();
        double total = sim::toMicroseconds(done);
        double overhead = total - sim::toMicroseconds(kernel);
        std::printf("%12.0f | %12.1f | %12.1f\n",
                    sim::toMicroseconds(kernel), total, overhead);
        json.addRow({{"section", "host_centric"},
                     {"kernel_us", sim::toMicroseconds(kernel)},
                     {"pipeline_us", total},
                     {"overhead_us", overhead}});
    }
    std::printf("\npaper anchor: 100 us kernel -> ~130 us pipeline "
                "(30 us overhead).\n");
    std::printf("LeNet-scale context: overhead is ~10%% of a ~300 us "
                "request (§3.2).\n");
}

/** Lynx-on-Bluefield per-stage breakdown of the same 100 us request.
 *  @return 0 on success, non-zero when a consistency check fails. */
int
lynxBreakdown(BenchJson &json, bool fast, const std::string &traceOut,
              const std::string &metricsOut)
{
    const sim::Tick kernel = 100_us;
    EchoWorld world(Platform::LynxBluefield, 1, kernel);
    sim::SpanCollector spans(world.sim());

    sim::Tick warmup = fast ? 2_ms : 5_ms;
    sim::Tick duration = fast ? 20_ms : 60_ms;
    RunResult r = world.run(1, warmup, duration, 200_us);

    std::printf("\nlynx-bluefield, 100 us kernel, unloaded closed "
                "loop (%llu spans):\n",
                static_cast<unsigned long long>(spans.finished()));
    std::printf("%18s | %8s | %10s | %10s | %6s\n", "stage", "count",
                "mean [us]", "p50 [us]", "share");

    const sim::Histogram &total = spans.totalHistogram();
    double stageSumNs = 0.0;
    for (std::size_t i = 1; i < sim::kNumStages; ++i) {
        auto st = static_cast<sim::Stage>(i);
        const sim::Histogram &h = spans.stageHistogram(st);
        stageSumNs += h.sum();
        double meanUs = h.mean() / 1000.0;
        std::printf("%18s | %8llu | %10.2f | %10.2f | %5.1f%%\n",
                    sim::stageName(st),
                    static_cast<unsigned long long>(h.count()), meanUs,
                    sim::toMicroseconds(h.percentile(50)),
                    total.sum() > 0.0 ? 100.0 * h.sum() / total.sum()
                                      : 0.0);
        json.addRow({{"section", "lynx_stage"},
                     {"stage", sim::stageName(st)},
                     {"count", h.count()},
                     {"mean_us", meanUs},
                     {"p50_us",
                      sim::toMicroseconds(h.percentile(50))}});
    }
    double totalMeanUs = total.mean() / 1000.0;
    double overheadUs = totalMeanUs - sim::toMicroseconds(kernel);
    std::printf("%18s | %8llu | %10.2f | %10.2f | 100.0%%\n",
                "end-to-end",
                static_cast<unsigned long long>(total.count()),
                totalMeanUs, sim::toMicroseconds(total.percentile(50)));
    std::printf("\nnon-kernel overhead: %.2f us mean (host-centric "
                "envelope: ~30 us, §3.2)\n",
                overheadUs);
    json.addRow({{"section", "lynx_summary"},
                 {"spans", total.count()},
                 {"e2e_mean_us", totalMeanUs},
                 {"e2e_p50_us",
                  sim::toMicroseconds(total.percentile(50))},
                 {"overhead_us", overheadUs},
                 {"rps", r.rps}});

    if (!traceOut.empty()) {
        if (spans.writeChromeTrace(traceOut))
            std::printf("[trace] wrote %s (%zu spans) — load in "
                        "Perfetto / chrome://tracing\n",
                        traceOut.c_str(), spans.spans().size());
        else
            std::fprintf(stderr, "cannot write %s\n", traceOut.c_str());
    }
    if (!metricsOut.empty()) {
        std::ofstream os(metricsOut);
        if (os) {
            world.sim().metrics().json(os);
            std::printf("[metrics] wrote %s (%zu stat sets)\n",
                        metricsOut.c_str(),
                        world.sim().metrics().size());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         metricsOut.c_str());
        }
    }

    int rc = 0;
    // Stage deltas are folded against the previous *stamped* stage, so
    // their per-span sum telescopes to exactly ClientRx - ClientTx;
    // the aggregate sums must therefore match to the tick (sums stay
    // far below 2^53, so the doubles are exact).
    if (total.count() == 0) {
        std::fprintf(stderr,
                     "FAIL: no spans completed (expected traffic)\n");
        rc = 1;
    }
    if (stageSumNs != total.sum()) {
        std::fprintf(stderr,
                     "FAIL: stage deltas sum to %.0f ns but "
                     "end-to-end is %.0f ns\n",
                     stageSumNs, total.sum());
        rc = 1;
    }
    if (overheadUs <= 0.0 || overheadUs > 30.0) {
        std::fprintf(stderr,
                     "FAIL: non-kernel overhead %.2f us outside the "
                     "(0, 30] us invocation-overhead envelope\n",
                     overheadUs);
        rc = 1;
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args =
        parseArgs(argc, argv, {"--fast", "--trace-out=", "--metrics-out="});
    const bool fast = args.has("--fast");
    const std::string traceOut = args.value("--trace-out=");
    const std::string metricsOut = args.value("--metrics-out=");

    banner("tab_invocation_overhead",
           "per-request GPU management overhead of the CPU-driven "
           "pipeline (§3.2), and the Lynx per-stage breakdown",
           "100 us kernel measures ~130 us end-to-end: ~30 us of pure "
           "management overhead");

    BenchJson json("tab_invocation_overhead");
    hostCentricSweep(json, fast);
    return lynxBreakdown(json, fast, traceOut, metricsOut);
}
