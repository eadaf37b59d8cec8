/**
 * @file
 * The SNIC-side view of an mqueue: the Remote Message Queue Manager
 * of paper §4.2/§5.1.
 *
 * All access to the rings in accelerator memory goes through the
 * accelerator's RC queue pair:
 *
 *  - RX push: one coalesced RDMA write of payload+metadata+doorbell
 *    (the §5.1 optimization), or the 3-op consistency-barrier
 *    sequence (data write, blocking RDMA read, doorbell write) under
 *    RxWrite::Barrier;
 *  - flow control: the SNIC tracks its own producer count and a
 *    *cached* copy of the accelerator's consumer register, refreshed
 *    by an RDMA read only when the ring looks full;
 *  - TX pop: an RDMA read snapshots the next TX slot; a doorbell
 *    match yields a message. Credit is returned by writing txCons.
 *
 * Server mqueues own a tag table mapping in-flight requests to the
 * client they came from ("the response will be sent to the client
 * from which the request was originally received", §4.3); client
 * mqueues keep a FIFO of pending request tags for matching backend
 * responses.
 */

#ifndef LYNX_LYNX_SNIC_MQUEUE_HH
#define LYNX_LYNX_SNIC_MQUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "lynx/mqueue.hh"
#include "net/congestion.hh"
#include "net/message.hh"
#include "rdma/qp.hh"
#include "sim/co.hh"
#include "sim/processor.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace lynx::core {

class TenantTable;

/** Server mqueues serve a listening port; client mqueues reach a
 *  fixed backend destination (§4.3). */
enum class MqueueKind { Server, Client };

/** How an RX push writes a message into its ring slot (§5.1). */
enum class RxWrite : std::uint8_t
{
    Coalesced, ///< payload, metadata and doorbell in one RDMA write
    Split,     ///< payload, then metadata + doorbell (2 ordered writes)
    Barrier,   ///< GPU workaround: write, blocking read, doorbell (~5 us)
};

/** SNIC-side behaviour switches. */
struct SnicMqueueConfig
{
    /** RX slot write discipline. */
    RxWrite rxWrite = RxWrite::Coalesced;

    /** Maximum messages rxPushBatch() emits as ONE coalesced RDMA
     *  write (one post cost, one trailing doorbell), and how many a
     *  dispatcher stages per mqueue before pushing them. 1 =
     *  per-message writes, exactly the unbatched behaviour. Segments
     *  split at a ring-wrap boundary (each stays contiguous); the
     *  Split and Barrier write modes emit one slot per segment (see
     *  docs/INTERNALS.md §5). */
    int maxBatch = 1;

    /** Surface RDMA completion errors on ring accesses and retry
     *  them with exponential backoff. Off (maxRetries = 0, the
     *  default) keeps the seed's posted, fire-and-forget writes with
     *  bit-identical timing; required when a fault plan is bound to
     *  the QP and recovery matters (docs/INTERNALS.md §7). It also
     *  makes the queue a failover queue (see hasRetryPolicy()). */
    rdma::RdmaRetryPolicy retry;

    /** 802.1Qbb-style PFC on the RX ring: a push that finds the ring
     *  full pauses (parking the pushing task — backpressure into the
     *  dispatcher/forwarder) instead of failing, polling the consumer
     *  register until occupancy drains to the XON threshold or the
     *  pause-storm guard breaks the episode. Off by default: a full
     *  ring fails the push immediately (seed timing), counted in the
     *  `overflow` counter. The Runtime sets it from the congestion
     *  plane of the network its NIC is attached to. */
    net::PfcConfig pfc;

    /** Tenant table for per-tenant ring-tag accounting (mqueue
     *  quotas, lynx/tenant.hh): the allocTag/release paths notify it
     *  so quotas stay balanced across failover requeues too. The
     *  Runtime always sets it; a stand-alone queue may leave it
     *  null (no accounting). */
    TenantTable *tenants = nullptr;
};

/** A message popped from an mqueue's TX ring. */
struct TxMessage
{
    std::vector<std::uint8_t> payload;
    std::uint32_t tag = 0;
    std::uint32_t err = 0;
};

/** Identity of the client an in-flight request came from, plus the
 *  request's generator bookkeeping echoed back on the response. */
struct ClientRef
{
    net::Address addr;
    /** Where the request was sent: with `addr`, the flow tuple a
     *  re-queued request is routed by. */
    net::Address dst;
    net::Protocol proto = net::Protocol::Udp;
    std::uint64_t seq = 0;
    sim::Tick sentAt = 0;

    /** Span-tracing id of the request (0 when tracing is off); the
     *  forwarder copies it onto the response so the client can close
     *  the span. */
    std::uint64_t traceId = 0;

    /** Owning tenant (0, the default VF, for untenanted traffic)
     *  and its tag-namespace generation at dispatch time. The
     *  forwarder checks the generation against the TenantTable
     *  before answering: a retired tenant's responses are
     *  dropped-and-counted, never delivered stale (lynx/tenant.hh). */
    std::uint16_t tenant = 0;
    std::uint16_t tenantGen = 0;

    /** Copy of the request payload, kept only by an mqueue with a
     *  retry policy (failover; see SnicMqueue::allocTag): it is what
     *  health draining re-queues to a surviving mqueue. Empty
     *  otherwise. */
    std::vector<std::uint8_t> payload;
};

/** SNIC-side manager of one mqueue. */
class SnicMqueue
{
  public:
    SnicMqueue(sim::Simulator &sim, std::string name, rdma::QueuePair &qp,
               MqueueLayout layout, MqueueKind kind,
               SnicMqueueConfig cfg = {});

    SnicMqueue(const SnicMqueue &) = delete;
    SnicMqueue &operator=(const SnicMqueue &) = delete;

    ~SnicMqueue();

    const std::string &name() const { return name_; }
    MqueueKind kind() const { return kind_; }
    const MqueueLayout &layout() const { return layout_; }

    /** One message of an RX push. */
    struct RxItem
    {
        std::span<const std::uint8_t> payload;
        std::uint32_t tag = 0;
        std::uint32_t err = 0;
    };

    /**
     * Push @p items into the RX ring, coalescing up to
     * `cfg.maxBatch` contiguous slots per RDMA write: one post cost
     * and one trailing doorbell cover the whole segment. Segments
     * split at ring-wrap boundaries; the Split and Barrier write
     * modes emit one slot per segment. The consumer cache is
     * refreshed over RDMA only when the ring looks full.
     * @pre !items.empty().
     * @return how many messages were accepted (a prefix of @p items;
     * fewer than items.size() means the ring filled up or the
     * transport failed).
     */
    sim::Co<std::size_t>
    rxPushBatch(sim::Core &core, std::span<const RxItem> items)
    {
        LYNX_ASSERT(!items.empty(), name_, ": empty RX batch");
        return pushRx(core, items, {});
    }

    /**
     * Push one message: a one-item rxPushBatch() (the same loop, in
     * one coroutine frame either way).
     * @return 1 if accepted, 0 if the ring is genuinely full (caller
     * drops — UDP semantics — or retries) or the transport failed.
     */
    sim::Co<std::size_t>
    rxPush(sim::Core &core, std::span<const std::uint8_t> payload,
           std::uint32_t tag, std::uint32_t err = 0)
    {
        return pushRx(core, {}, RxItem{payload, tag, err});
    }

    /** @return the RX coalescing cap (`cfg.maxBatch`, at least 1),
     *  also how many messages a dispatcher stages for one
     *  rxPushBatch() call. */
    std::size_t
    maxBatch() const
    {
        return static_cast<std::size_t>(std::max(cfg_.maxBatch, 1));
    }

    /**
     * Pop every ready TX-ring message (up to @p maxN, at least 1) in
     * ONE pipelined RDMA fetch: a single post cost plus the
     * serialization of all ready slots, instead of a post + fetch
     * round per slot. @p maxN = 1 is the unbatched one-slot read.
     * Appends the popped messages to @p out in seq order (nothing if
     * none is ready or the fetch fails). The poll itself is a
     * synchronous scan at the call; only a non-empty run returns a
     * coroutine (the fetch), so an empty poll starts no frame and
     * takes no simulated time. Await the result at once.
     */
    sim::Co<void> pollTxBatch(sim::Core &core, std::size_t maxN,
                              std::vector<TxMessage> &out);

    /** @return RX messages pushed but (as far as the cached consumer
     *  register shows) not yet consumed by the accelerator. Free —
     *  no RDMA; may over-estimate until the next cache refresh. */
    std::uint64_t
    rxBacklogEstimate() const
    {
        return rxProduced_ - rxConsCache_;
    }

    /** @return whether an RX-ring PFC pause episode is in progress
     *  (some pusher is parked waiting for the accelerator to drain). */
    bool rxPaused() const { return rxPaused_; }

    /** @return whether TX credit must be committed (pending pops). */
    bool txCommitPending() const { return txCommitted_ != txConsumed_; }

    /** Write the txCons credit register back to the accelerator. */
    sim::Co<void> commitTxCons(sim::Core &core);

    /**
     * Install @p fn to run whenever the accelerator writes into this
     * queue's TX ring (the forwarder's wakeup hook).
     */
    void setTxActivityHandler(std::function<void()> fn);

    /** @{ Server-queue tag table.
     *
     *  A tag value encodes (table index | generation << 16). The
     *  generation bumps on every release, so a *stale* response —
     *  e.g. from a revived accelerator answering a request whose tag
     *  was drained and since re-allocated by failover — can never be
     *  mis-matched to a new client (tryReleaseTag rejects it). With
     *  a retry policy the entry also keeps a copy of @p payload
     *  (unless @p client carries one): what a failover drain
     *  re-queues. */
    std::optional<std::uint32_t>
    allocTag(const ClientRef &client,
             std::span<const std::uint8_t> payload = {});

    /** Release @p tag; panics on an unknown/stale tag (a stale tag
     *  on a queue without a retry policy is a bug). */
    ClientRef releaseTag(std::uint32_t tag);

    /** Release @p tag if it is currently allocated with a matching
     *  generation; @return nullopt for unknown/stale tags (failover
     *  drains and duplicate responses after revival land here). */
    std::optional<ClientRef> tryReleaseTag(std::uint32_t tag);

    /** @return every currently allocated tag (generation-encoded),
     *  i.e. the in-flight requests a health drain must re-queue. */
    std::vector<std::uint32_t> allocatedTags() const;

    /** Non-destructive tag lookup: @return the ClientRef @p tag is
     *  currently allocated to, or null for unknown/stale tags. The
     *  forwarder's WRR traffic classes use it to learn a fetched TX
     *  slot's tenant before releasing the tag. */
    const ClientRef *peekTag(std::uint32_t tag) const;

    /** @return requests with an allocated tag, i.e. dispatched but
     *  not yet answered. Exact and SNIC-local (no RDMA), unlike
     *  rxBacklogEstimate()'s stale consumer cache. */
    std::size_t
    tagsInFlight() const
    {
        return tags_.size() - freeTags_.size();
    }

    /** @return total tag-table capacity — the denominator of the
     *  occupancy fraction admission control sheds on. */
    std::size_t tagCapacity() const { return tags_.size(); }

    /** @return whether this queue has a retry policy, i.e. takes
     *  part in failover: allocTag() retains payloads, and a response
     *  whose tag is unknown is a stale duplicate to drop and count,
     *  not a protocol violation. */
    bool hasRetryPolicy() const { return cfg_.retry.enabled(); }
    /** @} */

    /** @{ Transport health (fault injection + failover).
     *
     *  When a ring access exhausts its software retry budget the
     *  mqueue marks itself transport-dead; the health monitor reacts
     *  by failing the queue over. RX slots whose write was lost are
     *  remembered so revival can repair the sequence-number gap. */

    /** @return whether a ring access exhausted its retry budget and
     *  the queue needs failover + repair. */
    bool transportDead() const { return transportDead_; }

    /** RX slots claimed but never landed (retry budget exhausted). */
    std::size_t lostSlotCount() const { return lostSlots_.size(); }

    /**
     * Rewrite every lost RX slot as a zero-length kSlotSkipErr
     * message so the accelerator's strict-seq consumption can pass
     * the gap; clears the transport-dead flag when all repairs land.
     * @return false while the transport still fails (try again at
     * the next probe).
     */
    sim::Co<bool> repairGaps(sim::Core &core);

    /**
     * Revival probe: one signalled RDMA read of the rxCons register.
     * On success refreshes the consumer cache and clears the
     * transport-dead flag (if no gaps remain un-repaired).
     * @return whether the read completed Ok.
     */
    sim::Co<bool> probeAlive(sim::Core &core);

    /** Re-fire the TX activity handler (health monitor revival hook:
     *  wakes the forwarder to re-poll doorbells that rang while the
     *  queue was dead or its transport was failing). */
    void
    nudgeTx()
    {
        if (txActivityFn_)
            txActivityFn_();
    }
    /** @} */

    /** @{ Client-queue pending-request FIFO.
     *  Each in-flight backend request carries the deadline by which
     *  its response must arrive; the backend listener turns expired
     *  entries into error responses (the mqueue metadata's "error
     *  status from the Bluefield if a connection error is detected",
     *  §5.1). */
    struct Pending
    {
        std::uint32_t tag;
        sim::Tick deadline;
    };

    void notePending(std::uint32_t tag, sim::Tick deadline);
    std::optional<Pending> popPending();
    bool hasPending() const { return !pending_.empty(); }
    const Pending *oldestPending() const
    {
        return pending_.empty() ? nullptr : &pending_.front();
    }
    /** Opened whenever notePending() runs (backend-listener wakeup). */
    sim::Gate &pendingActivity() { return *pendingActivity_; }
    /** @} */

    sim::StatSet &stats() { return stats_; }

  private:
    /** Awaiter of pushWrite(). A posted write charges the post cost
     *  on the core and posts the write as the core is released, so
     *  it starts no frame; under a retry policy the write is
     *  signalled, in writeSignalled()'s coroutine. */
    struct [[nodiscard]] RingWrite
    {
        SnicMqueue &mq;
        sim::Core::ExecAwaiter<sim::Core::NoHook> post;
        std::uint64_t off;
        std::vector<std::uint8_t> buf;
        sim::Co<bool> signalled;

        bool await_ready() const noexcept { return false; }

        template <sim::SimPromise P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h)
        {
            if (signalled)
                return signalled.operator co_await().await_suspend(h);
            post.await_suspend(h);
            return std::noop_coroutine();
        }

        bool
        await_resume()
        {
            if (signalled)
                return signalled.operator co_await().await_resume();
            // After the release, so the delivery closure takes its
            // seq behind the core's grant wakeup.
            post.await_resume();
            mq.qp_.postWrite(off, std::move(buf));
            return true;
        }
    };

    /** A ready TX run found by scanTx(). */
    struct TxRun
    {
        std::size_t first = 0; ///< its first message's index in out
        std::size_t k = 0;     ///< messages in the run
        std::uint64_t fetchBytes = 0;
        std::uint64_t payloadBytes = 0;
    };

    /** The synchronous half of pollTxBatch(): count the poll and
     *  append the run of ready slots (at most @p maxN) to @p out. */
    TxRun scanTx(std::size_t maxN, std::vector<TxMessage> &out);

    /** The awaited half: fetch @p run, then pop it, or on a failed
     *  fetch take it back out of @p out. */
    sim::Co<void> fetchTx(sim::Core &core, TxRun run,
                          std::vector<TxMessage> &out);

    /**
     * The one RX reservation loop behind rxPush() and rxPushBatch():
     * pushes @p batch, or @p single when @p batch is empty. Per
     * segment: credit prefetch, lazy consumer refresh, then on a
     * genuinely full ring a PFC park or a counted overflow; then one
     * slot claim of up to the segment cap and one emission.
     */
    sim::Co<std::size_t> pushRx(sim::Core &core,
                                std::span<const RxItem> batch,
                                RxItem single);

    /** Emit claimed RX slot @p slot in the Split or Barrier write
     *  mode (several ops per slot). @return false when a write's
     *  retry budget ran out (transportDead() is set). */
    sim::Co<bool> writeSlotInParts(sim::Core &core, std::uint64_t slot,
                                   const RxItem &it);

    /**
     * Emit one RX-ring write: posted fire-and-forget when the retry
     * policy is off (the seed fast path, bit-identical), otherwise
     * signalled with software retries + exponential backoff. Awaits
     * to false when the retry budget is exhausted (the caller
     * records the lost slot; transportDead() is set).
     */
    RingWrite pushWrite(sim::Core &core, std::uint64_t off,
                        std::vector<std::uint8_t> buf);

    /** The signalled() write of @p buf at @p off (owns the buffer
     *  while the write retries). */
    sim::Co<bool> writeSignalled(sim::Core &core, std::uint64_t off,
                                 std::vector<std::uint8_t> buf);

    /** Issue the RDMA op @p op() (post cost first) under the retry
     *  policy: a failed completion is retried with exponential
     *  backoff. Without a policy the op is issued once and its
     *  status ignored (the seed's semantics); the TX fetch, which
     *  runs on every response, inlines that rule in fetchTx().
     *  @return false when the budget is exhausted (transportDead()
     *  is set). */
    template <typename Op>
    sim::Co<bool> signalled(sim::Core &core, Op op);

    /** Read rxCons into the consumer cache: @return whether it did. */
    sim::Co<bool> readRxCons(sim::Core &core);

    /** Count a refresh of the cached rxCons register that read
     *  (@p ok) or failed. */
    void noteRefresh(bool ok);

    /**
     * PFC pause: park the pushing task, polling the consumer register
     * every `pfc.pollInterval` until ring occupancy drains to the XON
     * threshold (@return true — the caller re-validates and retries)
     * or the episode exceeds `pfc.pauseTimeout` (storm guard;
     * @return false — the caller falls back to the counted drop
     * path). Only called on a genuinely full ring with PFC enabled.
     */
    sim::Co<bool> pfcWaitForSpace(sim::Core &core);

    /** End the current pause episode (counts the resume and records
     *  the pause duration; pause/resume always pair). */
    void pfcResume();

    /** Background credit prefetch: refresh the consumer cache before
     *  the ring *looks* full, so the push path rarely blocks on the
     *  read round trip. */
    sim::Task asyncRefresh(sim::Core &core);

    static std::uint64_t
    advance(std::uint64_t cache, std::uint32_t observed)
    {
        return cache + static_cast<std::uint32_t>(
                           observed - static_cast<std::uint32_t>(cache));
    }

    sim::Simulator &sim_;
    std::string name_;
    rdma::QueuePair &qp_;
    MqueueLayout layout_;
    MqueueKind kind_;
    SnicMqueueConfig cfg_;

    /** Encode scratch of one coalesced RX segment (filled and
     *  consumed without suspending, so concurrent pushers share it). */
    std::vector<SlotRecord> segRecs_;

    std::uint64_t rxProduced_ = 0;
    std::uint64_t rxConsCache_ = 0;
    bool refreshInFlight_ = false;
    std::uint64_t txConsumed_ = 0;
    std::uint64_t txCommitted_ = 0;

    /** Tag table (server queues): index -> client, with freelist and
     *  per-index generation (stale-tag detection, see allocTag). */
    std::vector<std::optional<ClientRef>> tags_;
    std::vector<std::uint32_t> freeTags_;
    std::vector<std::uint32_t> tagGen_;

    /** Transport health (fault injection). */
    bool transportDead_ = false;
    std::vector<std::uint64_t> lostSlots_;

    /** PFC pause episode state (cfg_.pfc). */
    bool rxPaused_ = false;
    sim::Tick pauseStart_ = 0;

    /** Pending backend requests (client queues), FIFO. */
    std::deque<Pending> pending_;
    std::unique_ptr<sim::Gate> pendingActivity_;

    std::uint64_t txWatchId_ = 0;
    bool txWatchInstalled_ = false;
    /** Copy of the TX activity handler, for nudgeTx(). */
    std::function<void()> txActivityFn_;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction (a string
     *  lookup per message would dominate the simulator hot loop). */
    sim::Counter *cRxPushed_;
    sim::Counter *cRxBytes_;
    sim::Counter *cRxWriteOps_;
    sim::Counter *cRxCoalesced_;
    sim::Counter *cRxFull_;
    sim::Counter *cRxConsRefreshes_;
    sim::Counter *cTxPolls_;
    sim::Counter *cTxFetchOps_;
    sim::Counter *cTxPopped_;
    sim::Counter *cTxBytes_;
    sim::Counter *cTxConsCommits_;
    sim::Counter *cRdmaErrors_;
    sim::Counter *cRdmaRetries_;
    sim::Counter *cSlotsLost_;
    sim::Counter *cOverflow_;
    sim::Counter *cPfcPauses_;
    sim::Counter *cPfcResumes_;
    sim::Counter *cPfcStormBreaks_;
    sim::Counter *cTagTableFull_;
    sim::Counter *cSlotsRepaired_;
    sim::Counter *cProbes_;
    sim::Histogram *hPauseTicks_;
    sim::Histogram *hTxBatchSize_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_SNIC_MQUEUE_HH
