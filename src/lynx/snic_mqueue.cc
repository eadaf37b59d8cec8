#include "snic_mqueue.hh"

#include <algorithm>

#include "lynx/tenant.hh"
#include "sim/span.hh"
#include "sim/task.hh"
#include "sim/trace.hh"

namespace lynx::core {

SnicMqueue::SnicMqueue(sim::Simulator &sim, std::string name,
                       rdma::QueuePair &qp, MqueueLayout layout,
                       MqueueKind kind, SnicMqueueConfig cfg)
    : sim_(sim), name_(std::move(name)), qp_(qp), layout_(layout),
      kind_(kind), cfg_(cfg)
{
    // Tag table sized to cover every in-flight request: the RX ring
    // bounds them, with slack for responses not yet forwarded. Tag
    // values carry the index in the low 16 bits and a generation in
    // the high 16 (stale-response rejection after failover drains).
    std::uint32_t tableSize = layout_.slots * 2;
    LYNX_ASSERT(tableSize <= 0x10000, name_,
                ": tag table exceeds the 16-bit index space");
    tags_.resize(tableSize);
    tagGen_.resize(tableSize, 0);
    for (std::uint32_t i = 0; i < tableSize; ++i)
        freeTags_.push_back(tableSize - 1 - i);
    pendingActivity_ = std::make_unique<sim::Gate>(sim);

    cRxPushed_ = &stats_.counter("rx_pushed");
    cRxBytes_ = &stats_.counter("rx_bytes");
    cRxWriteOps_ = &stats_.counter("rx_write_ops");
    cRxCoalesced_ = &stats_.counter("rx_coalesced");
    cRxFull_ = &stats_.counter("rx_full");
    cRxConsRefreshes_ = &stats_.counter("rx_cons_refreshes");
    cTxPolls_ = &stats_.counter("tx_polls");
    cTxFetchOps_ = &stats_.counter("tx_fetch_ops");
    cTxPopped_ = &stats_.counter("tx_popped");
    cTxBytes_ = &stats_.counter("tx_bytes");
    cTxConsCommits_ = &stats_.counter("tx_cons_commits");
    cRdmaErrors_ = &stats_.counter("rdma_errors");
    cRdmaRetries_ = &stats_.counter("rdma_retries");
    cSlotsLost_ = &stats_.counter("slots_lost");
    cOverflow_ = &stats_.counter("overflow");
    cPfcPauses_ = &stats_.counter("pfc_pauses");
    cPfcResumes_ = &stats_.counter("pfc_resumes");
    cPfcStormBreaks_ = &stats_.counter("pfc_storm_breaks");
    cTagTableFull_ = &stats_.counter("tag_table_full");
    cSlotsRepaired_ = &stats_.counter("slots_repaired");
    cProbes_ = &stats_.counter("probes");
    hPauseTicks_ = &stats_.histogram("pfc_pause_ticks");
    hTxBatchSize_ = &stats_.histogram("tx_batch_size");

    sim_.metrics().add("lynx.mq." + name_, stats_);
}

void
SnicMqueue::notePending(std::uint32_t tag, sim::Tick deadline)
{
    pending_.push_back(Pending{tag, deadline});
    pendingActivity_->open();
}

SnicMqueue::~SnicMqueue()
{
    sim_.metrics().remove(stats_);
    if (txWatchInstalled_)
        qp_.target().unwatch(txWatchId_);
}

void
SnicMqueue::setTxActivityHandler(std::function<void()> fn)
{
    if (txWatchInstalled_)
        qp_.target().unwatch(txWatchId_);
    txActivityFn_ = std::move(fn);
    txWatchId_ = qp_.target().watch(layout_.txRingOff(),
                                    layout_.ringBytes(),
                                    [this](auto, auto) {
                                        txActivityFn_();
                                    });
    txWatchInstalled_ = true;
}

template <typename Op>
sim::Co<bool>
SnicMqueue::signalled(sim::Core &core, Op op)
{
    // Completion errors (fault injection) surface here and are
    // re-attempted under an exponential-backoff budget.
    for (int attempt = 0;; ++attempt) {
        co_await core.exec(qp_.path().postCost);
        if (co_await op() == rdma::WcStatus::Ok)
            co_return true;
        if (!cfg_.retry.enabled()) {
            // Seed semantics: without the retry machinery the model
            // reads target memory directly, so a fetch is usable and
            // a barrier holds even when the wire judged them lost.
            co_return true;
        }
        cRdmaErrors_->add();
        if (attempt >= cfg_.retry.maxRetries) {
            transportDead_ = true;
            co_return false;
        }
        cRdmaRetries_->add();
        co_await sim::sleep(cfg_.retry.backoff(attempt));
    }
}

SnicMqueue::RingWrite
SnicMqueue::pushWrite(sim::Core &core, std::uint64_t off,
                      std::vector<std::uint8_t> buf)
{
    if (cfg_.retry.enabled())
        return {*this, core.exec(qp_.path().postCost), off, {},
                writeSignalled(core, off, std::move(buf))};
    return {*this, core.exec(qp_.path().postCost), off, std::move(buf),
            {}};
}

sim::Co<bool>
SnicMqueue::writeSignalled(sim::Core &core, std::uint64_t off,
                           std::vector<std::uint8_t> buf)
{
    co_return co_await signalled(core,
                                 [&] { return qp_.write(off, buf); });
}

sim::Co<bool>
SnicMqueue::readRxCons(sim::Core &core)
{
    co_await core.exec(qp_.path().postCost);
    std::uint8_t buf[4];
    rdma::WcStatus st = co_await qp_.read(layout_.rxConsOff(), buf);
    if (st != rdma::WcStatus::Ok)
        co_return false;
    std::uint32_t observed = static_cast<std::uint32_t>(buf[0]) |
                             (static_cast<std::uint32_t>(buf[1]) << 8) |
                             (static_cast<std::uint32_t>(buf[2]) << 16) |
                             (static_cast<std::uint32_t>(buf[3]) << 24);
    rxConsCache_ = advance(rxConsCache_, observed);
    co_return true;
}

void
SnicMqueue::noteRefresh(bool ok)
{
    // The refresh is advisory (flow control): a failed read just
    // leaves the cache stale and conservative. No retry here — a
    // full-looking ring re-refreshes on the next push.
    (ok ? cRxConsRefreshes_ : cRdmaErrors_)->add();
}

sim::Task
SnicMqueue::asyncRefresh(sim::Core &core)
{
    refreshInFlight_ = true;
    noteRefresh(co_await readRxCons(core));
    refreshInFlight_ = false;
}

sim::Co<bool>
SnicMqueue::pfcWaitForSpace(sim::Core &core)
{
    if (!rxPaused_) {
        rxPaused_ = true;
        pauseStart_ = sim_.now();
        cPfcPauses_->add();
        LYNX_TRACE(sim_, "mqueue", name_, ": pfc pause (occupancy ",
                   rxProduced_ - rxConsCache_, "/", layout_.slots, ")");
    }
    std::uint64_t xon = static_cast<std::uint64_t>(
        cfg_.pfc.xonFrac * static_cast<double>(layout_.slots));
    for (;;) {
        if (sim_.now() - pauseStart_ >= cfg_.pfc.pauseTimeout) {
            // Pause-storm guard: a drain that never comes (dead or
            // wedged accelerator) must not park the dispatcher
            // forever behind this queue — break the episode and let
            // the push fail over to the counted drop path.
            cPfcStormBreaks_->add();
            pfcResume();
            co_return false;
        }
        co_await sim::sleep(cfg_.pfc.pollInterval);
        noteRefresh(co_await readRxCons(core));
        if (rxProduced_ - rxConsCache_ <= xon) {
            pfcResume();
            co_return true;
        }
    }
}

void
SnicMqueue::pfcResume()
{
    if (!rxPaused_)
        return;
    rxPaused_ = false;
    cPfcResumes_->add();
    hPauseTicks_->record(sim_.now() - pauseStart_);
    LYNX_TRACE(sim_, "mqueue", name_, ": pfc resume after ",
               sim_.now() - pauseStart_, " ticks");
}

sim::Co<std::size_t>
SnicMqueue::pushRx(sim::Core &core, std::span<const RxItem> batch,
                   RxItem single)
{
    std::span<const RxItem> items =
        batch.empty() ? std::span<const RxItem>(&single, 1) : batch;
    for (const RxItem &it : items) {
        LYNX_ASSERT(it.payload.size() <= layout_.maxPayload(), name_,
                    ": payload exceeds slot capacity");
    }
    // The §5.1 barrier sequence is strictly per-message and a split
    // write has no single contiguous image to emit: both run this loop
    // one slot per segment, exactly a sequence of single pushes.
    const bool inParts = cfg_.rxWrite != RxWrite::Coalesced;
    const std::size_t segCap = inParts ? 1 : maxBatch();

    std::size_t accepted = 0;
    while (accepted < items.size()) {
        // Credit prefetch: once the ring looks half full, refresh the
        // consumer cache in the background so steady-state pushes
        // never block on the read round trip.
        if (!refreshInFlight_ &&
            rxProduced_ - rxConsCache_ >= layout_.slots / 2) {
            sim::spawn(sim_, asyncRefresh(core));
        }
        if (rxProduced_ - rxConsCache_ >= layout_.slots) {
            noteRefresh(co_await readRxCons(core));
            if (rxProduced_ - rxConsCache_ >= layout_.slots) {
                // Genuinely full. With PFC the pusher pauses until
                // the accelerator drains, then re-validates (a
                // concurrently resumed pusher may have claimed the
                // freed slots first). Without PFC, or when the storm
                // guard breaks the pause, the rest overflows: the
                // caller drops (UDP semantics), counted here.
                if (cfg_.pfc.enabled && co_await pfcWaitForSpace(core))
                    continue;
                cRxFull_->add();
                cOverflow_->add(items.size() - accepted);
                break;
            }
        }
        std::size_t k = std::min<std::size_t>(
            {items.size() - accepted, segCap,
             static_cast<std::size_t>(
                 layout_.slots - (rxProduced_ - rxConsCache_)),
             // A segment stays contiguous in the ring: stop at the
             // wrap boundary and emit the rest as the next segment.
             static_cast<std::size_t>(
                 layout_.slots - rxProduced_ % layout_.slots)});

        // Claim the segment *before* any suspension point: several
        // pushers may target this mqueue concurrently and must never
        // pick overlapping slots. Claim order equals seq order; the
        // accelerator consumes strictly by seq, so slightly
        // out-of-order deliveries on the QP are harmless.
        std::uint64_t firstSlot = rxProduced_;
        rxProduced_ += k;
        std::span<const RxItem> seg = items.subspan(accepted, k);
        std::uint64_t segBytes = 0;
        for (const RxItem &it : seg)
            segBytes += it.payload.size();

        bool ok;
        if (inParts) {
            ok = co_await writeSlotInParts(core, firstSlot, seg[0]);
        } else {
            // One post, one RDMA write, one trailing doorbell for the
            // whole segment. The records are encoded before the
            // write suspends, so one scratch vector serves every
            // concurrent pusher.
            segRecs_.clear();
            for (std::size_t j = 0; j < k; ++j) {
                SlotMeta meta;
                meta.len = static_cast<std::uint32_t>(seg[j].payload.size());
                meta.tag = seg[j].tag;
                meta.err = seg[j].err;
                meta.seq = static_cast<std::uint32_t>(firstSlot + j + 1);
                segRecs_.push_back(SlotRecord{seg[j].payload, meta});
            }
            auto [off, buf] =
                encodeRxBatchSegment(layout_, firstSlot, segRecs_);
            cRxWriteOps_->add();
            ok = co_await pushWrite(core, off, std::move(buf));
        }
        if (!ok) {
            // Retry budget exhausted: every claimed slot is a sequence
            // gap the accelerator's strict-seq consumption would wedge
            // on. Record them for the failover/revival repair pass
            // (kSlotSkipErr markers); the unaccepted suffix is
            // reported back to the caller.
            for (std::size_t j = 0; j < k; ++j)
                lostSlots_.push_back(firstSlot + j);
            cSlotsLost_->add(k);
            break;
        }
        LYNX_TRACE(sim_, "mqueue", name_, ": rx push seq ",
                   firstSlot + 1, "..", firstSlot + k, " (", segBytes,
                   " B payload, first tag ", seg[0].tag, ")");
        if (sim::SpanCollector *spans = sim_.spans()) {
            for (const RxItem &it : seg)
                spans->stampTag(&qp_.target(), layout_.base, it.tag,
                                sim::Stage::MqueueWrite, sim_.now());
        }
        cRxCoalesced_->add(k - 1);
        cRxPushed_->add(k);
        cRxBytes_->add(segBytes);
        accepted += k;
    }
    co_return accepted;
}

sim::Co<bool>
SnicMqueue::writeSlotInParts(sim::Core &core, std::uint64_t slot,
                             const RxItem &it)
{
    SlotMeta meta;
    meta.len = static_cast<std::uint32_t>(it.payload.size());
    meta.tag = it.tag;
    meta.err = it.err;
    meta.seq = static_cast<std::uint32_t>(slot + 1);
    std::uint64_t slotEnd = layout_.rxSlotEnd(slot);

    // Both modes cut the coalesced slot image in two. Split writes:
    // the payload, then the metadata trailer (2 ops; RC keeps order).
    // The §5.1 GPU consistency workaround: everything but the
    // doorbell, a blocking RDMA read as a write barrier, then the
    // doorbell (3 ops, one of them blocking).
    const bool barrier = cfg_.rxWrite == RxWrite::Barrier;
    std::vector<std::uint8_t> head = encodeSlotWrite(it.payload, meta);
    std::size_t cut = barrier ? head.size() - 4 : meta.len;
    std::vector<std::uint8_t> tail(head.begin() + cut, head.end());
    head.resize(cut);
    cRxWriteOps_->add(barrier ? 3 : 2);
    if (!co_await pushWrite(core, slotWriteOffset(slotEnd, meta.len),
                            std::move(head)))
        co_return false;
    if (barrier &&
        !co_await signalled(core, [this] { return qp_.readBarrier(); }))
        co_return false;
    std::uint64_t tailOff = slotEnd - tail.size();
    co_return co_await pushWrite(core, tailOff, std::move(tail));
}

sim::Co<void>
SnicMqueue::pollTxBatch(sim::Core &core, std::size_t maxN,
                        std::vector<TxMessage> &out)
{
    LYNX_ASSERT(maxN >= 1, name_, ": pollTxBatch of ", maxN, " slots");
    TxRun run = scanTx(maxN, out);
    if (run.k == 0)
        return {};
    return fetchTx(core, run, out);
}

SnicMqueue::TxRun
SnicMqueue::scanTx(std::size_t maxN, std::vector<TxMessage> &out)
{
    // The forwarder issues a stream of pipelined RDMA reads over the
    // TX doorbells and slots; modelling each read as a full blocking
    // round trip would serialize what the NIC overlaps. We therefore
    // read the ready run from current memory (exact, because a slot
    // is never rewritten before its credit returns, so what is ready
    // now is what the fetch lands) and charge one post cost plus the
    // fetch latency and serialization of the whole run. Misses are
    // free: the forwarder only polls queues whose doorbell watchpoint
    // fired, and pays the round-robin scan cost separately.
    cTxPolls_->add();
    TxRun run;
    run.first = out.size();
    while (run.k < maxN && run.k < layout_.slots) {
        std::uint64_t slotEnd = layout_.txSlotEnd(txConsumed_ + run.k);
        SlotMeta meta = readSlotMeta(qp_.target(), slotEnd);
        if (meta.seq !=
            static_cast<std::uint32_t>(txConsumed_ + run.k + 1))
            break;
        TxMessage msg;
        msg.payload = readSlotPayload(qp_.target(), slotEnd, meta);
        msg.tag = meta.tag;
        msg.err = meta.err;
        out.push_back(std::move(msg));
        run.fetchBytes += meta.len + SlotMeta::bytes;
        run.payloadBytes += meta.len;
        ++run.k;
    }
    return run;
}

sim::Co<void>
SnicMqueue::fetchTx(sim::Core &core, TxRun run,
                    std::vector<TxMessage> &out)
{
    const std::uint64_t bytes = run.fetchBytes;
    if (!cfg_.retry.enabled()) {
        // signalled()'s no-retry rule, inline: this fetch runs once
        // per TX run on the data path, and going through signalled()
        // started one more frame for each (1.0 per request on
        // echo_fanout). The fetch is usable even when the wire judged
        // it lost (counted in the QP's fetch_errors).
        co_await core.exec(qp_.path().postCost);
        co_await qp_.fetch(bytes);
    } else if (!co_await signalled(
                   core, [this, bytes] { return qp_.fetch(bytes); })) {
        // The fetched data must not be used: nothing is popped.
        out.resize(run.first);
        co_return;
    }
    txConsumed_ += run.k;
    LYNX_TRACE(sim_, "mqueue", name_, ": tx pop seq ",
               txConsumed_ - run.k + 1, "..", txConsumed_, " (",
               run.payloadBytes, " B payload)");
    cTxFetchOps_->add();
    cTxPopped_->add(run.k);
    cTxBytes_->add(run.payloadBytes);
    hTxBatchSize_->record(run.k);
}

sim::Co<void>
SnicMqueue::commitTxCons(sim::Core &core)
{
    if (txCommitted_ == txConsumed_)
        co_return;
    std::uint64_t target = txConsumed_;
    if (!cfg_.retry.enabled()) {
        // Mark committed before suspending so a concurrent commit
        // does not double-post (the seed's discipline).
        txCommitted_ = target;
    }
    std::uint32_t v = static_cast<std::uint32_t>(target);
    std::vector<std::uint8_t> reg{static_cast<std::uint8_t>(v),
                                  static_cast<std::uint8_t>(v >> 8),
                                  static_cast<std::uint8_t>(v >> 16),
                                  static_cast<std::uint8_t>(v >> 24)};
    bool ok = co_await pushWrite(core, layout_.txConsOff(),
                                 std::move(reg));
    if (!ok)
        co_return; // credit still owed; recommitted after revival
    txCommitted_ = std::max(txCommitted_, target);
    cTxConsCommits_->add();
}

std::optional<std::uint32_t>
SnicMqueue::allocTag(const ClientRef &client,
                     std::span<const std::uint8_t> payload)
{
    LYNX_ASSERT(kind_ == MqueueKind::Server,
                "tag table is a server-queue facility");
    if (freeTags_.empty()) {
        cTagTableFull_->add();
        return std::nullopt;
    }
    std::uint32_t idx = freeTags_.back();
    freeTags_.pop_back();
    tags_[idx] = client;
    // Host-side copy only: retention costs no simulated time.
    if (hasRetryPolicy() && tags_[idx]->payload.empty())
        tags_[idx]->payload.assign(payload.begin(), payload.end());
    std::uint32_t tag = idx | (tagGen_[idx] << 16);
    if (cfg_.tenants)
        cfg_.tenants->noteTagAlloc(client.tenant);
    // Dispatcher picked this queue and claimed the tag: that is the
    // dispatch-enqueue hop. The accelerator side only sees the 32-bit
    // tag, so bind tag -> trace id for the downstream stamps; the
    // binding dies with the tag in tryReleaseTag.
    if (sim::SpanCollector *spans = sim_.spans()) {
        if (client.traceId != 0) {
            spans->stamp(client.traceId, sim::Stage::DispatchEnqueue,
                         sim_.now());
            spans->bindTag(&qp_.target(), layout_.base, tag,
                           client.traceId);
        }
    }
    return tag;
}

ClientRef
SnicMqueue::releaseTag(std::uint32_t tag)
{
    std::optional<ClientRef> c = tryReleaseTag(tag);
    LYNX_ASSERT(c.has_value(), name_, ": response with unknown tag ",
                tag);
    return *c;
}

std::optional<ClientRef>
SnicMqueue::tryReleaseTag(std::uint32_t tag)
{
    std::uint32_t idx = tag & 0xffffu;
    std::uint32_t gen = tag >> 16;
    if (idx >= tags_.size() || !tags_[idx].has_value() ||
        tagGen_[idx] != gen)
        return std::nullopt;
    ClientRef c = std::move(*tags_[idx]);
    tags_[idx].reset();
    // Bump the generation so a duplicate/stale response carrying this
    // tag value can never match a future allocation of the index.
    tagGen_[idx] = (tagGen_[idx] + 1) & 0xffffu;
    freeTags_.push_back(idx);
    if (sim::SpanCollector *spans = sim_.spans())
        spans->unbindTag(&qp_.target(), layout_.base, tag);
    if (cfg_.tenants)
        cfg_.tenants->noteTagRelease(c.tenant);
    return c;
}

const ClientRef *
SnicMqueue::peekTag(std::uint32_t tag) const
{
    std::uint32_t idx = tag & 0xffffu;
    std::uint32_t gen = tag >> 16;
    if (idx >= tags_.size() || !tags_[idx].has_value() ||
        tagGen_[idx] != gen)
        return nullptr;
    return &*tags_[idx];
}

std::vector<std::uint32_t>
SnicMqueue::allocatedTags() const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < tags_.size(); ++i)
        if (tags_[i].has_value())
            out.push_back(i | (tagGen_[i] << 16));
    return out;
}

sim::Co<bool>
SnicMqueue::repairGaps(sim::Core &core)
{
    std::sort(lostSlots_.begin(), lostSlots_.end());
    bool repaired = false;
    while (!lostSlots_.empty()) {
        std::uint64_t slot = lostSlots_.front();
        SlotMeta meta;
        meta.len = 0;
        meta.tag = 0;
        meta.err = kSlotSkipErr;
        meta.seq = static_cast<std::uint32_t>(slot + 1);
        std::uint64_t slotEnd = layout_.rxSlotEnd(slot);
        bool ok = co_await pushWrite(core, slotWriteOffset(slotEnd, 0),
                                     encodeSlotWrite({}, meta));
        if (!ok)
            co_return false; // still partitioned; next probe retries
        lostSlots_.erase(lostSlots_.begin());
        cSlotsRepaired_->add();
        repaired = true;
        LYNX_TRACE(sim_, "mqueue", name_, ": repaired gap at seq ",
                   meta.seq);
    }
    if (repaired)
        transportDead_ = false;
    co_return true;
}

sim::Co<bool>
SnicMqueue::probeAlive(sim::Core &core)
{
    cProbes_->add();
    bool ok = co_await readRxCons(core);
    if (!ok)
        co_return false;
    if (lostSlots_.empty())
        transportDead_ = false;
    co_return true;
}

std::optional<SnicMqueue::Pending>
SnicMqueue::popPending()
{
    if (pending_.empty())
        return std::nullopt;
    Pending p = pending_.front();
    pending_.pop_front();
    return p;
}

} // namespace lynx::core
