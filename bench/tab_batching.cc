/**
 * @file
 * Batched RDMA dispatch & forwarding ablation (extension — see
 * docs/INTERNALS.md §"Batched dispatch & forwarding"): under a
 * saturating closed loop, staging ingress messages per mqueue and
 * coalescing them into multi-slot RDMA writes (one post cost, one
 * trailing doorbell), draining TX rings in pipelined multi-slot
 * fetches, and consuming doorbells in bursts on the accelerator
 * should cut the RDMA operations issued per message by the batch
 * factor while raising small-message throughput.
 *
 * Matrix: batching off (per-message ops, the paper's §5.1 pattern)
 * vs on (maxBatch 16 end to end) × payload {64, 512, 1416} B on the
 * Bluefield deployment. Reported: RDMA ops/message (aggregated over
 * every mqueue's SNIC-side counters), Ktps, p50/p99 latency.
 *
 * Writes BENCH_tab_batching.json; `--fast` shrinks the run for CI
 * smoke use.
 */


#include "common.hh"

using namespace lynxbench;

namespace {

struct Row
{
    bool batched;
    std::size_t payload;
    double opsPerMsg;
    double ktps;
    RunResult r;
};

/** Sum the RDMA verbs issued by the SNIC side across all mqueues:
 *  RX writes (1 per coalesced batch segment, 2–3 in the fallback
 *  modes), consumer-cache refresh reads, TX slot fetch reads, and
 *  TX credit commit writes. */
std::uint64_t
rdmaOps(core::Runtime &rt)
{
    std::uint64_t ops = 0;
    for (const auto &mq : rt.mqueues()) {
        const sim::StatSet &st = mq->stats();
        ops += st.counterValue("rx_write_ops");
        ops += st.counterValue("rx_cons_refreshes");
        ops += st.counterValue("tx_fetch_ops");
        ops += st.counterValue("tx_cons_commits");
    }
    return ops;
}

Row
measure(bool batched, std::size_t payload, bool fast)
{
    EchoOptions opts;
    opts.payloadBytes = payload;
    if (batched) {
        opts.mq.maxBatch = calibration::snicRxMaxBatch;
        opts.forwardMaxBatch = calibration::snicTxMaxBatch;
        opts.adaptivePoll = true;
        opts.gioBurst = true;
    }
    // Few queues + deep rings + many closed-loop clients: arrivals
    // genuinely queue behind each other, so staged batches form.
    EchoWorld world(Platform::LynxBluefield, /*mqueues=*/2,
                    /*procTime=*/0, opts);
    int conc = fast ? 16 : 64;
    RunResult r = world.run(conc, fast ? 2_ms : 5_ms,
                            fast ? 10_ms : 60_ms);
    Row row;
    row.batched = batched;
    row.payload = payload;
    row.r = r;
    row.ktps = r.rps / 1000.0;
    row.opsPerMsg = r.completed
                        ? static_cast<double>(rdmaOps(*world.runtime())) /
                              static_cast<double>(r.completed)
                        : 0.0;
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool fast = parseArgs(argc, argv, {"--fast"}).has("--fast");

    banner("tab_batching",
           "batched RDMA dispatch & forwarding (extension ablation, "
           "zero-work echo, Bluefield, saturating closed loop)",
           "extension target: >=2x fewer RDMA ops/message and higher "
           "64 B throughput with batching on; per-message §5.1 "
           "behaviour with batching off");

    const std::size_t payloads[] = {64, 512, 1416};
    BenchJson json("tab_batching");

    std::printf("%8s %8s | %10s | %10s %10s %10s\n", "payload",
                "batching", "ops/msg", "Ktps", "p50 [us]", "p99 [us]");
    for (std::size_t payload : payloads) {
        Row off = measure(false, payload, fast);
        Row on = measure(true, payload, fast);
        for (const Row *row : {&off, &on}) {
            std::printf("%6zu B %8s | %10.2f | %10.1f %10.1f %10.1f\n",
                        row->payload, row->batched ? "on" : "off",
                        row->opsPerMsg, row->ktps, row->r.p50us,
                        row->r.p99us);
            json.addRow({{"payload", static_cast<int>(row->payload)},
                         {"batching", row->batched},
                         {"ops_per_msg", row->opsPerMsg},
                         {"ktps", row->ktps},
                         {"p50_us", row->r.p50us},
                         {"p99_us", row->r.p99us},
                         {"completed", row->r.completed},
                         {"failures", row->r.failures}});
        }
        std::printf("%8s %8s | %9.2fx | %9.2fx\n", "", "ratio",
                    on.opsPerMsg ? off.opsPerMsg / on.opsPerMsg : 0.0,
                    off.ktps ? on.ktps / off.ktps : 0.0);
    }
    std::printf("\nextension anchor: one coalesced write + doorbell "
                "per batch segment (RX) and one pipelined fetch per "
                "drain (TX) amortize the per-op post cost.\n");
    return 0;
}
