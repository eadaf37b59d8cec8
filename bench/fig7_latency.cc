/**
 * @file
 * Figure 7 — "Relative latency of a GPU server with Lynx on Bluefield
 * vs. Lynx on 6-core CPU (lower is better)".
 *
 * Sweep: request runtime {5..1600} us × mqueues {1, 120, 240};
 * unloaded closed loop (one outstanding request per mqueue). Also
 * prints the paper's absolute anchors: ~25 us vs ~19 us end-to-end
 * for a zero-time kernel, 14 us vs 11 us spent inside Lynx.
 */

#include "common.hh"

using namespace lynxbench;

namespace {

RunResult
measure(Platform p, int mqueues, sim::Tick procTime)
{
    EchoWorld world(p, mqueues, procTime);
    int conc = std::min(mqueues, 64); // unloaded: <=1 per queue
    return world.run(conc, 5_ms, 60_ms, 200_us);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("fig7", "latency of Lynx on Bluefield relative to Lynx on "
                   "the host CPU",
           "shorter requests are slower on Bluefield; the difference "
           "diminishes for requests of 150 us and higher; within 10% "
           "for any request size at high mqueue counts; absolute "
           "zero-work e2e ~25 us (BF) vs ~19 us (Xeon)");

    const sim::Tick times[] = {5_us,   20_us,  50_us, 200_us,
                               400_us, 800_us, 1600_us};
    const int queueCounts[] = {1, 120, 240};

    std::printf("%8s |", "runtime");
    for (int q : queueCounts)
        std::printf("   q=%-3d xeon6/bf [us]    slowdown |", q);
    std::printf("\n");

    for (sim::Tick t : times) {
        std::printf("%6.0fus |", sim::toMicroseconds(t));
        for (int q : queueCounts) {
            RunResult bf = measure(Platform::LynxBluefield, q, t);
            RunResult xeon = measure(Platform::LynxXeon6, q, t);
            std::printf("  %7.1f /%7.1f    %8.2fx |", xeon.p50us,
                        bf.p50us, bf.p50us / xeon.p50us);
        }
        std::printf("\n");
    }

    // Zero-work anchor, 1 mqueue.
    RunResult bf0 = measure(Platform::LynxBluefield, 1, 0);
    RunResult xeon0 = measure(Platform::LynxXeon6, 1, 0);
    std::printf("\nzero-work kernel e2e: bluefield %.1f us, xeon %.1f "
                "us (paper: ~25 vs ~19 us)\n",
                bf0.p50us, xeon0.p50us);
    return 0;
}
