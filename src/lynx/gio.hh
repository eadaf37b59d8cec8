/**
 * @file
 * gio — the accelerator-side I/O library.
 *
 * This is the "lightweight I/O layer on top of mqueues" of paper
 * §4.3/§5.3: a few wrappers over the producer/consumer rings that
 * provide familiar recv/send calls with zero copy. It needs nothing
 * from the accelerator beyond local memory access (plus the ordering
 * guarantees discussed in §4.4), which is what makes Lynx portable:
 * the same class serves the GPU persistent kernels and the Intel VCA
 * integration (where the paper quotes "20 Lines of Code").
 *
 * Timing: every local poll/access costs `localLatency`; payload
 * construction costs `perByte`. Polling is "virtualized": instead of
 * spinning, the task parks on a Gate that a DeviceMemory watchpoint
 * opens when the SNIC's RDMA write lands, then pays the poll latency
 * it would have spent observing the doorbell.
 */

#ifndef LYNX_LYNX_GIO_HH
#define LYNX_LYNX_GIO_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lynx/mqueue.hh"
#include "pcie/memory.hh"
#include "sim/co.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/time.hh"

namespace lynx::core {

/** Accelerator-side timing parameters. */
struct GioConfig
{
    /** Local memory access/poll latency. */
    sim::Tick localLatency = sim::nanoseconds(200);

    /** Per-byte cost of reading/writing payload in local memory. */
    double perByte = 0.15;

    /** Widen the sweep of a one-message receive (recv() or
     *  recvBatch(1)) to every ready slot: when the SNIC lands a
     *  batched RX write, one doorbell poll discovers the whole run,
     *  one sweep drains it (one poll latency, one consumer-register
     *  update) and the surplus is served from the staged messages.
     *  Off (default) = one poll + one register write per message,
     *  the unbatched behaviour. A receive of up to maxN > 1 sweeps at
     *  most maxN either way. */
    bool rxBurst = false;
};

/** A message as seen by accelerator code. */
struct GioMessage
{
    std::vector<std::uint8_t> payload;

    /** Correlation tag; a response must echo the request's tag. */
    std::uint32_t tag = 0;

    /** Error status propagated by the SNIC (0 = none). */
    std::uint32_t err = 0;
};

/** One outgoing response of a sendBatch() call. */
struct GioTxItem
{
    /** Correlation tag echoed from the request. */
    std::uint32_t tag = 0;

    /** Response payload (referenced, not copied; must stay alive
     *  across the sendBatch await). */
    std::span<const std::uint8_t> payload;

    /** Error status to propagate (0 = none). */
    std::uint32_t err = 0;
};

/** Accelerator-side handle of one mqueue. */
class AccelQueue
{
  public:
    AccelQueue(sim::Simulator &sim, std::string name,
               pcie::DeviceMemory &mem, MqueueLayout layout,
               GioConfig cfg = {});

    AccelQueue(const AccelQueue &) = delete;
    AccelQueue &operator=(const AccelQueue &) = delete;

    ~AccelQueue();

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return the queue geometry. */
    const MqueueLayout &layout() const { return layout_; }

    /** Await the next request from the RX ring (zero-copy read of
     *  accelerator-local memory): recvBatch(1) returning the message
     *  itself. */
    sim::Co<GioMessage> recv();

    /** Non-blocking probe: @return whether recv() would not park. */
    bool rxReady() const;

    /**
     * Await at least one request, then drain up to @p maxN ready RX
     * slots in one sweep: one doorbell poll discovers the run of
     * consecutive ready slots, and one consumer-register update
     * acknowledges all of them (dynamic request batching, the
     * accelerator-side consumer of the SNIC's batched RDMA pushes).
     * Messages staged by an earlier, wider sweep are served first.
     * Always appends 1..maxN messages to @p out.
     */
    sim::Co<void> recvBatch(std::size_t maxN, std::vector<GioMessage> &out);

    /**
     * Non-blocking variant of recvBatch(): pays one doorbell poll and
     * appends whatever is ready *now* (possibly nothing). Used by the
     * services' bounded-linger policy to top up a partial batch.
     */
    sim::Co<void> tryRecvBatch(std::size_t maxN,
                               std::vector<GioMessage> &out);

    /**
     * Write a message into the TX ring and ring its doorbell: a
     * sendBatch() of one item. Suspends while the TX ring is full
     * (SNIC not yet forwarded).
     */
    sim::Co<void> send(std::uint32_t tag,
                       std::span<const std::uint8_t> payload,
                       std::uint32_t err = 0);

    /**
     * Commit @p items into consecutive TX slots under a single
     * contiguous low-to-high write per ring segment — payloads first,
     * each doorbell after its payload, the batch's highest doorbell
     * last — so the SNIC forwarder's batched TX drain observes the
     * whole run at once. Splits only at ring wrap or when flow
     * control runs out of credit (then stalls until the SNIC
     * returns credit). One item costs one credit poll, one payload
     * copy and one doorbell write.
     */
    sim::Co<void> sendBatch(std::span<const GioTxItem> items);

    /** Messages received / sent counters. */
    sim::StatSet &stats() { return stats_; }

  private:
    /** @return the sweep width of a blocking receive of up to
     *  @p maxN messages (GioConfig::rxBurst). */
    std::uint64_t
    sweepWidth(std::size_t maxN) const
    {
        return maxN == 1 && cfg_.rxBurst ? layout_.slots : maxN;
    }

    /** The one receive path: append up to @p maxN messages to
     *  @p out — staged ones if an earlier sweep left any, else those
     *  of a sweep of at most @p maxSlots ready slots after one
     *  doorbell poll, repeated until a message arrives (or, with
     *  @p park = false, tried once) — stamping AppStart on each and
     *  recording them as one delivered batch. */
    sim::Co<void> receive(std::uint64_t maxSlots, bool park,
                          std::size_t maxN, std::vector<GioMessage> &out);

    /** What one sweep consumed. */
    struct Sweep
    {
        std::uint64_t drained = 0;
        std::uint64_t skipped = 0;
        std::uint64_t bytes = 0;
    };

    /** Read the run of consecutive ready RX slots from rxConsumed_ —
     *  at most @p maxSlots of them, none if its doorbell is not rung:
     *  the first @p maxN messages go to @p out, the rest to staged_.
     *  Repaired-gap skip slots are consumed without delivery. The
     *  caller pays the costs and advances rxConsumed_. */
    Sweep sweepReady(std::uint64_t maxSlots, std::size_t maxN,
                     std::vector<GioMessage> &out);

    /** Extend 32-bit register value @p observed onto 64-bit @p cache. */
    static std::uint64_t
    advance(std::uint64_t cache, std::uint32_t observed)
    {
        return cache + static_cast<std::uint32_t>(
                           observed - static_cast<std::uint32_t>(cache));
    }

    sim::Simulator &sim_;
    std::string name_;
    pcie::DeviceMemory &mem_;
    MqueueLayout layout_;
    GioConfig cfg_;

    std::uint64_t rxConsumed_ = 0;
    std::uint64_t txProduced_ = 0;
    std::uint64_t txConsCache_ = 0;

    /** Messages a sweep read beyond its receive's maxN (their poll +
     *  copy costs were paid at sweep time): staged_[stagedHead_..].
     *  Sweeps only run once every staged message is delivered, so the
     *  vector is cleared then and refilled in its kept capacity. */
    std::vector<GioMessage> staged_;
    std::size_t stagedHead_ = 0;

    /** recv()'s output vector. A ring has one consumer (rxConsumed_
     *  is its own), so one recv() at a time uses it. */
    std::vector<GioMessage> rxOne_;

    /** Scratch record list of sendBatch (filled and encoded with no
     *  suspension in between, so concurrent senders cannot clash). */
    std::vector<SlotRecord> txRecs_;

    sim::Gate rxActivity_;
    sim::Gate txConsActivity_;
    std::uint64_t rxWatchId_ = 0;
    std::uint64_t txConsWatchId_ = 0;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction. */
    sim::Counter *cRxMsgs_;
    sim::Counter *cRxBytes_;
    sim::Counter *cRxBursts_;
    sim::Counter *cRxSkipped_;
    sim::Counter *cTxMsgs_;
    sim::Counter *cTxBytes_;
    sim::Counter *cTxStalls_;
    sim::Histogram *hBatchRecvSize_;
    sim::Histogram *hBatchSendSize_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_GIO_HH
