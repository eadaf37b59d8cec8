/**
 * @file
 * One-sided RDMA over a Reliable Connection queue pair.
 *
 * Lynx's Remote Message Queue Manager accesses mqueues in accelerator
 * memory exclusively through one-sided RDMA reads/writes on an RC QP
 * (paper §4.2, §5.1: "One RC QP per accelerator"). This module models
 * that primitive:
 *
 *  - ordered execution: work requests on one QP complete in post
 *    order (RC semantics), modelled by a per-QP serialization chain;
 *  - a write's bytes land in the target DeviceMemory at delivery
 *    time, firing its watchpoints (that is how doorbells ring);
 *  - a read snapshots target memory when the request reaches it,
 *    not when the caller resumes;
 *  - local (PCIe peer-to-peer) vs. remote (through the fabric)
 *    targets differ only in the RdmaPathModel timing parameters,
 *    mirroring the paper's "a remote accelerator is indistinguishable
 *    from a local one" design (§5.5).
 *
 * Fault model (extension): with a sim::FaultPlan bound, each work
 * request is judged per transmission attempt. RC transport retries a
 * lost or ICRC-corrupted packet in hardware up to `hwRetries` times
 * (each costing `retransmitDelay` and occupying the QP channel —
 * retransmits delay everything behind them, as RC ordering demands);
 * an exhausted budget surfaces as WcStatus::Error with the data never
 * landing. Corruption is *always* caught by the ICRC check, so a
 * fault plan can flip bits without a corrupt byte ever reaching
 * accelerator memory — it costs retransmits instead. A failed op
 * does not wedge the QP: the model treats the runtime as resetting
 * the QP transparently, so later ops proceed (software-level
 * recovery is the caller's job, via RdmaRetryPolicy and the mqueue
 * health machinery).
 */

#ifndef LYNX_RDMA_QP_HH
#define LYNX_RDMA_QP_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/congestion.hh"
#include "pcie/memory.hh"
#include "sim/co.hh"
#include "sim/fault.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace lynx::rdma {

/** Timing of the path from an initiator NIC to target memory. */
struct RdmaPathModel
{
    /** CPU cost of posting one work request (ibv_post_send; paper
     *  §5.1 cites <1 µs on the host). Charged by the *caller* on its
     *  core; the QP itself models only NIC-side time. */
    sim::Tick postCost = sim::nanoseconds(700);

    /** Initiator NIC processing per work request. */
    sim::Tick nicLatency = sim::nanoseconds(600);

    /** One-way latency from initiator NIC to target memory (PCIe
     *  peer-to-peer DMA for a local accelerator; + switch/wire for a
     *  remote one). */
    sim::Tick oneWay = sim::nanoseconds(900);

    /** Payload bandwidth in Gbit/s. */
    double gbps = 50.0;

    /** Delay from delivery to initiator-visible completion (ack). */
    sim::Tick completionDelay = sim::nanoseconds(900);

    /** @return serialization time of @p bytes. */
    sim::Tick
    serialization(std::uint64_t bytes) const
    {
        return static_cast<sim::Tick>(static_cast<double>(bytes) * 8.0 /
                                      gbps);
    }

    /** A path model for a target behind the network fabric: adds the
     *  extra one-way wire latency @p extra on top of this path. */
    RdmaPathModel
    viaNetwork(sim::Tick extra) const
    {
        RdmaPathModel p = *this;
        p.oneWay += extra;
        p.completionDelay += extra;
        return p;
    }
};

/** Outcome of a signalled work request, as the completion queue
 *  reports it. Error means the transport exhausted its retransmit
 *  budget: the data did not land (write) or was not fetched (read). */
enum class WcStatus : std::uint8_t { Ok, Error };

/** Software retry budget for callers that must survive completion
 *  errors (the dispatcher's RX pushes, the forwarder's TX fetches).
 *  maxRetries = 0 disables the machinery entirely: callers keep the
 *  seed's posted-write fast path, bit-identical in timing. Defaults
 *  are generic; the calibrated policy is
 *  calibration::rdmaSwRetryPolicy() (lynx/calibration.hh). */
struct RdmaRetryPolicy
{
    /** Software re-attempts after a completion error (on top of the
     *  transport's own hardware retransmits). 0 = off. */
    int maxRetries = 0;

    /** Exponential backoff: attempt k sleeps min(base << k, max). */
    sim::Tick backoffBase = sim::microseconds(2);
    sim::Tick backoffMax = sim::microseconds(64);

    bool enabled() const { return maxRetries > 0; }

    /** @return backoff before re-attempt @p attempt (0-based). */
    sim::Tick
    backoff(int attempt) const
    {
        int shift = std::min(attempt, 20);
        return std::min(backoffBase << shift, backoffMax);
    }
};

/** Binding of a QP to a fault plan: which (initiator, target) node
 *  pair its transfers are judged as, and the transport-level
 *  retransmit budget. */
struct QpFaultBinding
{
    sim::FaultPlan *plan = nullptr;

    /** Node ids used for FaultPlan::judge / partitions. */
    std::uint32_t initiator = 0;
    std::uint32_t target = 0;

    /** Hardware retransmissions per work request before the QP
     *  reports a completion error (IB retry_cnt). */
    int hwRetries = 3;

    /** Retransmission timeout per lost/corrupted attempt. */
    sim::Tick retransmitDelay = sim::microseconds(16);
};

/**
 * Binding of a QP to the congestion plane: RoCE traffic rides the
 * lossless (PFC-protected) priority of a shared egress port, gets
 * ECN-marked in its RED band, and reacts to the resulting CNPs with a
 * per-QP DCQCN rate limiter. The port is typically
 * Network::egressPort(targetNode), so RDMA and datagram flows contend
 * for the same bottleneck.
 */
struct QpCongestionBinding
{
    /** Shared egress queue this QP's transfers pass through; nullptr
     *  = rate-limit only (no shared queue, no marking). */
    net::CongestionPoint *port = nullptr;

    /** Reaction-point parameters of this QP's rate limiter. */
    net::DcqcnConfig dcqcn;

    /** Control-path latency of a CNP back to the initiator. */
    sim::Tick cnpDelay = sim::microseconds(2);

    /** At most one CNP per this interval (notification pacing). */
    sim::Tick cnpMinInterval = sim::microseconds(50);
};

/** A Reliable Connection QP bound to one target memory region. */
class QueuePair
{
  public:
    /**
     * @param sim owning simulator.
     * @param name diagnostic name.
     * @param target the DeviceMemory this QP is registered against.
     * @param path timing of the initiator→target path.
     */
    QueuePair(sim::Simulator &sim, std::string name,
              pcie::DeviceMemory &target, RdmaPathModel path)
        : sim_(sim), name_(std::move(name)), target_(target), path_(path),
          cWriteOps_(&stats_.counter("write_ops")),
          cWriteBytes_(&stats_.counter("write_bytes")),
          cReadOps_(&stats_.counter("read_ops")),
          cReadBytes_(&stats_.counter("read_bytes")),
          cBarrierOps_(&stats_.counter("barrier_ops")),
          cPostedWriteLost_(&stats_.counter("posted_write_lost")),
          cFetchErrors_(&stats_.counter("fetch_errors")),
          cHwRetransmits_(&stats_.counter("hw_retransmits")),
          cWcErrors_(&stats_.counter("wc_errors"))
    {
        sim_.metrics().add("rdma.qp." + name_, stats_);
    }

    ~QueuePair() { sim_.metrics().remove(stats_); }

    QueuePair(const QueuePair &) = delete;
    QueuePair &operator=(const QueuePair &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return the path model (callers charge postCost from it). */
    const RdmaPathModel &path() const { return path_; }

    /** @return target memory region. */
    pcie::DeviceMemory &target() { return target_; }

    /** Bind this QP's transfers to a fault plan (nullptr plan
     *  detaches). Off by default; an unbound or all-zero plan leaves
     *  every op on the exact seed timing path. */
    void bindFaults(QpFaultBinding binding) { faults_ = binding; }

    /** @return whether fault injection is live on this QP. */
    bool
    faultsEnabled() const
    {
        return faults_.plan != nullptr && faults_.plan->enabled();
    }

    /**
     * Attach this QP to the congestion plane (off by default; an
     * unbound QP keeps the exact seed timing path). Ops then queue
     * through the bound egress port (lossless: marked, never
     * dropped), serialize at min(path rate, DCQCN rate), and CE marks
     * come back as CNPs after `cnpDelay`, cutting the rate.
     */
    void
    bindCongestion(QpCongestionBinding binding)
    {
        cc_ = std::make_unique<CcState>(CcState{
            binding,
            net::Dcqcn(binding.dcqcn, sim_.now()),
            /*lastCnpAt=*/0,
            /*cnpEver=*/false,
            &stats_.counter("cnp_rx"),
            &stats_.counter("ecn_marked"),
            &stats_.histogram("rate_mbps"),
            &stats_.histogram("alpha_x1000"),
        });
    }

    /** Detach from the congestion plane. */
    void unbindCongestion() { cc_.reset(); }

    /** @return this QP's DCQCN state, or nullptr when unbound
     *  (test/debug introspection). */
    const net::Dcqcn *dcqcn() const { return cc_ ? &cc_->dcqcn : nullptr; }

    /**
     * One-sided RDMA write: place @p data at @p off in target memory.
     * Returns when the initiator sees the completion; the data is
     * visible at the target earlier (at delivery). On WcStatus::Error
     * (fault injection only) the data never lands.
     */
    sim::Co<WcStatus>
    write(std::uint64_t off, std::span<const std::uint8_t> data)
    {
        OpFate fate = judgeOp();
        if (fate.fail) {
            co_await sim::sleep(failTime(data.size(), fate) - sim_.now());
            co_return WcStatus::Error;
        }
        sim::Tick deliverAt = scheduleDelivery(
            off, {data.begin(), data.end()}, fate.extra);
        co_await sim::sleep(deliverAt + path_.completionDelay - sim_.now());
        co_return WcStatus::Ok;
    }

    /**
     * Posted (unsignalled) write: returns immediately; delivery is
     * scheduled and remains ordered after earlier operations. A
     * transport failure under fault injection is invisible to the
     * caller (there is no completion to report it on) — it only
     * shows in the `posted_write_lost` counter. Callers that must
     * know use write() with an RdmaRetryPolicy.
     */
    void
    postWrite(std::uint64_t off, std::vector<std::uint8_t> data)
    {
        OpFate fate = judgeOp();
        if (fate.fail) {
            failTime(data.size(), fate); // occupy the channel anyway
            cPostedWriteLost_->add();
            return;
        }
        scheduleDelivery(off, std::move(data), fate.extra);
    }

    /** A read snapshot: shared by read()'s awaiter and its delivery
     *  closure, which may outlive it; the vector and its bytes both
     *  come from the Pool. */
    using Snapshot =
        std::vector<std::uint8_t, sim::PoolAllocator<std::uint8_t>>;

    /** Awaiter of read(): the op is judged and scheduled at the call,
     *  and the caller resumes at its completion. */
    struct [[nodiscard]] ReadAwaiter
    {
        QueuePair &qp;
        sim::Tick doneAt;
        std::shared_ptr<Snapshot> snapshot; ///< null: the op failed
        std::span<std::uint8_t> out;

        bool await_ready() const noexcept { return false; }

        template <sim::SimPromise P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            qp.sim_.schedule(doneAt, h);
        }

        WcStatus
        await_resume()
        {
            if (!snapshot)
                return WcStatus::Error;
            std::copy(snapshot->begin(), snapshot->end(), out.begin());
            return WcStatus::Ok;
        }
    };

    /**
     * One-sided RDMA read of @p out.size() bytes at @p off. The
     * snapshot is taken when the request reaches the target; the
     * caller resumes one `oneWay` later with @p out filled. On
     * WcStatus::Error @p out is untouched. The op is judged and
     * scheduled at the call: await it at once.
     */
    ReadAwaiter
    read(std::uint64_t off, std::span<std::uint8_t> out)
    {
        OpFate fate = judgeOp();
        if (fate.fail)
            return {*this, failTime(0, fate), nullptr, out};
        sim::Tick arriveAt = nextOpTime(0, fate.extra);
        auto snapshot = std::allocate_shared<Snapshot>(
            sim::PoolAllocator<Snapshot>{}, out.size());
        pcie::DeviceMemory &target = target_;
        sim_.schedule(arriveAt, [&target, off, snapshot] {
            target.read(off, *snapshot);
        });
        // Response serializes at path rate and flies back.
        sim::Tick respTime =
            arriveAt + path_.serialization(out.size()) + path_.oneWay;
        cReadOps_->add();
        cReadBytes_->add(out.size());
        return {*this, respTime, std::move(snapshot), out};
    }

    /**
     * Zero-byte RDMA read used as a write barrier (the GPU
     * consistency workaround, paper §5.1): completes after a full
     * round trip, ordered behind earlier writes.
     */
    sim::Co<WcStatus>
    readBarrier()
    {
        OpFate fate = judgeOp();
        if (fate.fail) {
            co_await sim::sleep(failTime(0, fate) - sim_.now());
            co_return WcStatus::Error;
        }
        sim::Tick arriveAt = nextOpTime(0, fate.extra);
        sim::Tick respTime = arriveAt + path_.oneWay;
        cBarrierOps_->add();
        co_await sim::sleep(respTime - sim_.now());
        co_return WcStatus::Ok;
    }

    /** Awaiter of fetch(): the op is judged at the call, and the
     *  caller resumes when the fetch has landed (or failed). */
    struct [[nodiscard]] FetchAwaiter
    {
        QueuePair &qp;
        sim::Tick delay;
        bool fail;

        bool await_ready() const noexcept { return false; }

        template <sim::SimPromise P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            qp.sim_.scheduleIn(delay, h);
        }

        WcStatus
        await_resume()
        {
            if (!fail)
                return WcStatus::Ok;
            qp.cFetchErrors_->add();
            return WcStatus::Error;
        }
    };

    /**
     * Latency model of one *pipelined* fetch of @p bytes from target
     * memory (the forwarder's TX-slot reads, which stream without
     * holding the QP channel — see SnicMqueue::pollTxBatch). Without
     * faults this is exactly nicLatency + oneWay + serialization;
     * with faults, retransmits add their delays and an exhausted
     * budget returns Error (the fetched data must not be used). The
     * op is judged at the call: await it at once.
     */
    FetchAwaiter
    fetch(std::uint64_t bytes)
    {
        OpFate fate = judgeOp();
        return {*this,
                path_.nicLatency + path_.oneWay +
                    path_.serialization(bytes) + fate.extra,
                fate.fail};
    }

    /** Operation/byte counters. */
    sim::StatSet &stats() { return stats_; }

  private:
    /** Congestion-plane state (only allocated while bound). */
    struct CcState
    {
        QpCongestionBinding b;
        net::Dcqcn dcqcn;
        sim::Tick lastCnpAt = 0;
        bool cnpEver = false;
        sim::Counter *cCnpRx;
        sim::Counter *cEcnMarked;
        sim::Histogram *hRateMbps;
        sim::Histogram *hAlphaX1000;
    };

    /** Transport-level outcome of one work request: the summed
     *  retransmit/injected delay, and whether the retry budget was
     *  exhausted (completion error). */
    struct OpFate
    {
        bool fail = false;
        sim::Tick extra = 0;
    };

    /** Judge one work request against the bound fault plan: each
     *  transmission attempt can be lost or ICRC-corrupted (both cost
     *  a retransmit) or delayed; hwRetries exhausted => fail. */
    OpFate
    judgeOp()
    {
        OpFate fate;
        if (!faultsEnabled())
            return fate;
        sim::FaultPlan &plan = *faults_.plan;
        for (int attempt = 0; attempt <= faults_.hwRetries; ++attempt) {
            auto v = plan.judge(faults_.initiator, faults_.target,
                                sim_.now());
            fate.extra += v.delay;
            if (!v.drop && !v.corrupt)
                return fate;
            // Lost, or corrupted and caught by the ICRC check:
            // the transport retransmits after a timeout.
            fate.extra += faults_.retransmitDelay;
            cHwRetransmits_->add();
        }
        fate.fail = true;
        cWcErrors_->add();
        return fate;
    }

    /** Serialization time of @p bytes at the effective rate:
     *  min(path rate, DCQCN rate) when congestion-bound, path rate
     *  otherwise (the seed path — bit-identical when unbound). */
    sim::Tick
    serTime(std::uint64_t bytes)
    {
        if (!cc_)
            return path_.serialization(bytes);
        double r = std::min(path_.gbps, cc_->dcqcn.rateAt(sim_.now()));
        return static_cast<sim::Tick>(static_cast<double>(bytes) * 8.0 /
                                      r);
    }

    /** Account a failed op's channel occupancy (its attempts still
     *  serialize and delay later ops, per RC ordering) and @return
     *  the initiator-visible error-completion time. */
    sim::Tick
    failTime(std::uint64_t bytes, const OpFate &fate)
    {
        sim::Tick start =
            std::max(sim_.now() + path_.nicLatency, busyUntil_);
        busyUntil_ = start + serTime(bytes) + fate.extra;
        return busyUntil_ + path_.completionDelay;
    }

    /**
     * @return time the next op (payload @p bytes) reaches the target.
     * Ops occupy the QP's channel for their serialization time only
     * (they pipeline through the one-way latency); deliveries stay
     * ordered because the start times are monotonic. @p extra models
     * retransmit/injected delay and occupies the channel too. With a
     * congestion binding, the op additionally queues through the
     * shared egress port (lossless: RoCE rides the PFC-protected
     * priority, so it is marked, never dropped) and serializes at the
     * DCQCN-limited rate.
     */
    sim::Tick
    nextOpTime(std::uint64_t bytes, sim::Tick extra = 0)
    {
        sim::Tick start =
            std::max(sim_.now() + path_.nicLatency, busyUntil_);
        if (cc_ && cc_->b.port) {
            auto v = cc_->b.port->admit(bytes, start, /*lossless=*/true);
            start = std::max(start, v.start);
            if (v.marked)
                noteMark(v.start);
        }
        busyUntil_ = start + serTime(bytes) + extra;
        return busyUntil_ + path_.oneWay;
    }

    /** A frame of this QP was CE-marked at @p markAt: the target's
     *  notification point answers with a (paced) CNP that cuts our
     *  rate `cnpDelay` later. */
    void
    noteMark(sim::Tick markAt)
    {
        cc_->cEcnMarked->add();
        if (cc_->cnpEver && markAt - cc_->lastCnpAt < cc_->b.cnpMinInterval)
            return;
        cc_->cnpEver = true;
        cc_->lastCnpAt = markAt;
        sim_.schedule(markAt + cc_->b.cnpDelay, [this] {
            cc_->cCnpRx->add();
            cc_->dcqcn.onCnp(sim_.now());
            cc_->hRateMbps->record(static_cast<std::uint64_t>(
                cc_->dcqcn.rateGbps() * 1000.0));
            cc_->hAlphaX1000->record(static_cast<std::uint64_t>(
                cc_->dcqcn.alpha() * 1000.0));
        });
    }

    /** Schedule an ordered write delivery; @return delivery time. */
    sim::Tick
    scheduleDelivery(std::uint64_t off, std::vector<std::uint8_t> data,
                     sim::Tick extra = 0)
    {
        std::uint64_t n = data.size();
        sim::Tick deliverAt = nextOpTime(n, extra);
        pcie::DeviceMemory &target = target_;
        sim_.schedule(deliverAt, [&target, off, d = std::move(data)] {
            target.write(off, d);
        });
        cWriteOps_->add();
        cWriteBytes_->add(n);
        return deliverAt;
    }

    sim::Simulator &sim_;
    std::string name_;
    pcie::DeviceMemory &target_;
    RdmaPathModel path_;
    QpFaultBinding faults_;
    std::unique_ptr<CcState> cc_;
    sim::Tick busyUntil_ = 0;
    sim::StatSet stats_;

    /** Per-op counters, resolved once at construction. */
    sim::Counter *cWriteOps_;
    sim::Counter *cWriteBytes_;
    sim::Counter *cReadOps_;
    sim::Counter *cReadBytes_;
    sim::Counter *cBarrierOps_;
    sim::Counter *cPostedWriteLost_;
    sim::Counter *cFetchErrors_;
    sim::Counter *cHwRetransmits_;
    sim::Counter *cWcErrors_;
};

} // namespace lynx::rdma

#endif // LYNX_RDMA_QP_HH
