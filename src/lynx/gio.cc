#include "gio.hh"

#include <algorithm>

#include "sim/span.hh"

namespace lynx::core {

AccelQueue::AccelQueue(sim::Simulator &sim, std::string name,
                       pcie::DeviceMemory &mem, MqueueLayout layout,
                       GioConfig cfg)
    : sim_(sim), name_(std::move(name)), mem_(mem), layout_(layout),
      cfg_(cfg), rxActivity_(sim), txConsActivity_(sim)
{
    // Doorbells arrive via the SNIC's RDMA writes into the RX ring;
    // TX-ring credit returns arrive as RDMA writes to txCons.
    rxWatchId_ = mem_.watch(layout_.rxRingOff(), layout_.ringBytes(),
                            [this](auto, auto) { rxActivity_.open(); });
    txConsWatchId_ = mem_.watch(layout_.txConsOff(), 4,
                                [this](auto, auto) {
                                    txConsActivity_.open();
                                });

    cRxMsgs_ = &stats_.counter("rx_msgs");
    cRxBytes_ = &stats_.counter("rx_bytes");
    cRxBursts_ = &stats_.counter("rx_bursts");
    cRxSkipped_ = &stats_.counter("rx_skipped");
    cTxMsgs_ = &stats_.counter("tx_msgs");
    cTxBytes_ = &stats_.counter("tx_bytes");
    cTxStalls_ = &stats_.counter("tx_stalls");
    hBatchRecvSize_ = &stats_.histogram("batch.recv_size");
    hBatchSendSize_ = &stats_.histogram("batch.send_size");

    sim_.metrics().add("gio." + name_, stats_);
}

AccelQueue::~AccelQueue()
{
    sim_.metrics().remove(stats_);
    mem_.unwatch(rxWatchId_);
    mem_.unwatch(txConsWatchId_);
}

bool
AccelQueue::rxReady() const
{
    if (stagedHead_ < staged_.size())
        return true;
    SlotMeta meta = readSlotMeta(mem_, layout_.rxSlotEnd(rxConsumed_));
    return meta.seq == static_cast<std::uint32_t>(rxConsumed_ + 1);
}

sim::Co<GioMessage>
AccelQueue::recv()
{
    co_await receive(sweepWidth(1), /*park=*/true, 1, rxOne_);
    GioMessage msg = std::move(rxOne_.front());
    rxOne_.clear();
    co_return msg;
}

sim::Co<void>
AccelQueue::recvBatch(std::size_t maxN, std::vector<GioMessage> &out)
{
    LYNX_ASSERT(maxN >= 1, name_, ": recvBatch of ", maxN, " messages");
    return receive(sweepWidth(maxN), /*park=*/true, maxN, out);
}

sim::Co<void>
AccelQueue::tryRecvBatch(std::size_t maxN, std::vector<GioMessage> &out)
{
    LYNX_ASSERT(maxN >= 1, name_, ": tryRecvBatch of ", maxN,
                " messages");
    return receive(maxN, /*park=*/false, maxN, out);
}

sim::Co<void>
AccelQueue::receive(std::uint64_t maxSlots, bool park, std::size_t maxN,
                    std::vector<GioMessage> &out)
{
    const std::size_t first = out.size();
    // Messages left over from an earlier, wider sweep were fully paid
    // for (poll, copy, register update); handing them out costs
    // nothing and needs no poll.
    while (stagedHead_ < staged_.size() && out.size() - first < maxN)
        out.push_back(std::move(staged_[stagedHead_++]));
    if (stagedHead_ == staged_.size()) {
        staged_.clear();
        stagedHead_ = 0;
    }
    while (out.size() == first) {
        rxActivity_.close();
        // One doorbell poll discovers the whole run of ready slots.
        co_await sim::sleep(cfg_.localLatency);
        Sweep sw = sweepReady(maxSlots, maxN, out);
        if (sw.drained > 0) {
            // Multi-slot doorbell consumption: the sweep pays the
            // payload copies and one consumer-register update for the
            // whole run. Skip markers carry no payload: a sweep of
            // nothing but markers takes no copy step at all.
            if (sw.drained > sw.skipped)
                co_await sim::sleep(static_cast<sim::Tick>(
                    cfg_.perByte * static_cast<double>(sw.bytes)));
            rxConsumed_ += sw.drained;
            mem_.writeU32(layout_.rxConsOff(),
                          static_cast<std::uint32_t>(rxConsumed_));
            co_await sim::sleep(cfg_.localLatency);
            cRxMsgs_->add(sw.drained - sw.skipped);
            cRxBytes_->add(sw.bytes);
            cRxBursts_->add();
            if (sw.skipped > 0)
                cRxSkipped_->add(sw.skipped);
        } else if (park) {
            co_await rxActivity_.wait();
        }
        // A sweep of repaired-gap markers only delivers nothing: a
        // parked receive keeps polling for a real message.
        if (!park)
            break;
    }
    const std::size_t n = out.size() - first;
    if (n == 0)
        co_return;
    if (sim::SpanCollector *spans = sim_.spans()) {
        for (std::size_t i = first; i < out.size(); ++i)
            spans->stampTag(&mem_, layout_.base, out[i].tag,
                            sim::Stage::AppStart, sim_.now());
    }
    hBatchRecvSize_->record(n);
}

AccelQueue::Sweep
AccelQueue::sweepReady(std::uint64_t maxSlots, std::size_t maxN,
                       std::vector<GioMessage> &out)
{
    // A batched SNIC write lands all its doorbells atomically, so the
    // run of consecutive ready slots from rxConsumed_ is exactly the
    // (tail of the) batch. Repaired-gap markers (kSlotSkipErr) are
    // consumed but never delivered.
    const std::size_t first = out.size();
    Sweep sw;
    const std::uint64_t maxDrain =
        std::min<std::uint64_t>(maxSlots, layout_.slots);
    while (sw.drained < maxDrain) {
        std::uint64_t slotEnd = layout_.rxSlotEnd(rxConsumed_ + sw.drained);
        SlotMeta meta = readSlotMeta(mem_, slotEnd);
        if (meta.seq !=
            static_cast<std::uint32_t>(rxConsumed_ + sw.drained + 1))
            break;
        if (meta.err == kSlotSkipErr) {
            ++sw.skipped;
        } else {
            GioMessage msg;
            msg.tag = meta.tag;
            msg.err = meta.err;
            msg.payload = readSlotPayload(mem_, slotEnd, meta);
            if (sim::SpanCollector *spans = sim_.spans())
                spans->stampTag(&mem_, layout_.base, meta.tag,
                                sim::Stage::GioPop, sim_.now());
            sw.bytes += meta.len;
            (out.size() - first < maxN ? out : staged_)
                .push_back(std::move(msg));
        }
        ++sw.drained;
    }
    return sw;
}

sim::Co<void>
AccelQueue::send(std::uint32_t tag, std::span<const std::uint8_t> payload,
                 std::uint32_t err)
{
    const GioTxItem item{tag, payload, err};
    co_await sendBatch({&item, 1});
}

sim::Co<void>
AccelQueue::sendBatch(std::span<const GioTxItem> items)
{
    if (items.empty())
        co_return;
    // The app hands over every response here: compute for the whole
    // batch ends now; what follows is commit cost and queueing.
    sim::SpanCollector *spans = sim_.spans();
    for (const GioTxItem &it : items) {
        LYNX_ASSERT(it.payload.size() <= layout_.maxPayload(), name_,
                    ": payload of ", it.payload.size(),
                    " bytes exceeds slot");
        if (spans)
            spans->stampTag(&mem_, layout_.base, it.tag,
                            sim::Stage::AppEnd, sim_.now());
    }
    std::size_t sent = 0;
    while (sent < items.size()) {
        // Flow control: wait for at least one TX-ring credit.
        for (;;) {
            txConsActivity_.close();
            co_await sim::sleep(cfg_.localLatency);
            txConsCache_ =
                advance(txConsCache_, mem_.readU32(layout_.txConsOff()));
            if (txProduced_ - txConsCache_ < layout_.slots)
                break;
            cTxStalls_->add();
            co_await txConsActivity_.wait();
        }
        // Take as many items as credit allows without wrapping the
        // ring: one contiguous write commits the whole segment.
        std::uint64_t credit =
            layout_.slots - (txProduced_ - txConsCache_);
        std::uint64_t untilWrap =
            layout_.slots - txProduced_ % layout_.slots;
        std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(
            {items.size() - sent, credit, untilWrap}));
        txRecs_.clear();
        std::uint64_t segBytes = 0;
        for (std::size_t j = 0; j < n; ++j) {
            const GioTxItem &it = items[sent + j];
            SlotMeta meta;
            meta.len = static_cast<std::uint32_t>(it.payload.size());
            meta.tag = it.tag;
            meta.err = it.err;
            meta.seq = static_cast<std::uint32_t>(txProduced_ + j + 1);
            txRecs_.push_back({it.payload, meta});
            segBytes += it.payload.size();
        }
        auto [off, buf] =
            encodeTxBatchSegment(layout_, txProduced_, txRecs_);
        co_await sim::sleep(
            cfg_.localLatency +
            static_cast<sim::Tick>(cfg_.perByte *
                                   static_cast<double>(segBytes)));
        // One contiguous low-to-high write: every payload, every
        // doorbell after its payload, the segment's highest doorbell
        // last. The SNIC-side TX-ring watchpoint wakes the forwarder
        // once for the whole segment.
        mem_.write(off, buf);
        txProduced_ += n;
        sent += n;
        cTxMsgs_->add(n);
        cTxBytes_->add(segBytes);
    }
    hBatchSendSize_->record(items.size());
}

} // namespace lynx::core
