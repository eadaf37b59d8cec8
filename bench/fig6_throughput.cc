/**
 * @file
 * Figure 6 — "Relative throughput of GPU server implementations for
 * different request execution times (higher is better)".
 *
 * Sweep: request execution time {20, 200, 800, 1600} us × mqueue
 * count {1, 120, 240}; 64 B UDP messages. Throughput of each Lynx
 * placement is reported relative to the host-centric baseline of the
 * same configuration, as in the paper.
 *
 * Writes BENCH_fig6_throughput.json; `--fast` shrinks the sweep to
 * one cell per platform for CI smoke use.
 */


#include "common.hh"

using namespace lynxbench;

namespace {

RunResult
measure(Platform p, int mqueues, sim::Tick procTime)
{
    EchoWorld world(p, mqueues, procTime);
    // Enough closed-loop clients to saturate: ~2 per queue, capped to
    // keep the run small; 1-queue configs still need a few.
    int conc = std::min(2 * mqueues + 2, 512);
    return world.run(conc);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");

    banner("fig6", "throughput speedup over the host-centric baseline",
           "Lynx-on-Bluefield up to 15.3x for short requests with many "
           "mqueues; always above one Xeon core; ~4 host cores match "
           "the Bluefield; a single host core cannot drive 240 mqueues "
           "even at 1.6 ms requests");

    const std::vector<sim::Tick> times =
        fast ? std::vector<sim::Tick>{20_us}
             : std::vector<sim::Tick>{20_us, 200_us, 800_us, 1600_us};
    const std::vector<int> queueCounts =
        fast ? std::vector<int>{1} : std::vector<int>{1, 120, 240};
    const Platform lynxes[] = {Platform::LynxXeon1, Platform::LynxXeon6,
                               Platform::LynxBluefield};

    BenchJson json("fig6_throughput");

    std::printf("%8s %7s | %12s | %10s %10s %10s   (speedup vs host)\n",
                "exec", "queues", "host [req/s]", "xeon1", "xeon6",
                "bluefield");
    for (sim::Tick t : times) {
        for (int q : queueCounts) {
            RunResult host = measure(Platform::HostCentric, q, t);
            std::printf("%6.0fus %7d | %12.0f |", sim::toMicroseconds(t),
                        q, host.rps);
            json.addRow({{"exec_us", sim::toMicroseconds(t)},
                         {"queues", q},
                         {"platform", platformName(Platform::HostCentric)},
                         {"rps", host.rps},
                         {"speedup", 1.0},
                         {"p50_us", host.p50us},
                         {"p99_us", host.p99us}});
            for (Platform p : lynxes) {
                RunResult r = measure(p, q, t);
                std::printf(" %9.1fx", r.rps / host.rps);
                json.addRow({{"exec_us", sim::toMicroseconds(t)},
                             {"queues", q},
                             {"platform", platformName(p)},
                             {"rps", r.rps},
                             {"speedup", r.rps / host.rps},
                             {"p50_us", r.p50us},
                             {"p99_us", r.p99us}});
            }
            std::printf("\n");
        }
    }
    std::printf("\nreference points: paper reports 2x (20us, 1 queue) "
                "and 15.3x (short requests, many queues) for "
                "Lynx-on-Bluefield.\n");
    return 0;
}
