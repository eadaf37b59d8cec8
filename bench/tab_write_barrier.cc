/**
 * @file
 * §5.1 ablations on the mqueue RX write path:
 *
 *  - metadata/data coalescing: one contiguous low-to-high RDMA write
 *    carrying payload + metadata + doorbell, vs separate data and
 *    metadata writes;
 *  - the GPU consistency workaround: RDMA data write + blocking RDMA
 *    read barrier + doorbell write. Paper: "these operations incur
 *    extra latency of 5 useconds to each message ... in our
 *    evaluation we disable the consistency enforcement workaround".
 */

#include "common.hh"

using namespace lynxbench;

namespace {

RunResult
measure(core::SnicMqueueConfig mqCfg)
{
    EchoWorld world(Platform::LynxBluefield, 1, 0, mqCfg);
    return world.run(1, 5_ms, 80_ms, 50_us);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_write_barrier",
           "mqueue RX write-path ablation: coalescing and the GPU "
           "consistency barrier (zero-work echo, Bluefield)",
           "coalesced single write is the fast path; the 3-op barrier "
           "sequence adds ~5 us per message");

    core::SnicMqueueConfig coalesced;         // the Lynx default
    core::SnicMqueueConfig split;
    split.rxWrite = core::RxWrite::Split;     // data + metadata writes
    core::SnicMqueueConfig barrier;
    barrier.rxWrite = core::RxWrite::Barrier; // §5.1 workaround

    RunResult rCoal = measure(coalesced);
    RunResult rSplit = measure(split);
    RunResult rBarrier = measure(barrier);

    std::printf("%26s | %10s | %12s\n", "rx write path", "p50 [us]",
                "delta [us]");
    std::printf("%26s | %10.1f | %12s\n",
                "coalesced (1 RDMA write)", rCoal.p50us, "-");
    std::printf("%26s | %10.1f | %12.1f\n",
                "split data+meta (2 writes)", rSplit.p50us,
                rSplit.p50us - rCoal.p50us);
    std::printf("%26s | %10.1f | %12.1f\n",
                "barrier (write+read+write)", rBarrier.p50us,
                rBarrier.p50us - rCoal.p50us);
    std::printf("\npaper anchor: the barrier workaround costs ~5 us "
                "per message and defeats coalescing.\n");
    return 0;
}
