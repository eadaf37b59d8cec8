/**
 * @file
 * The Message Forwarder / egress half of the Remote Message Queue
 * Manager (paper Fig. 4): "fetches the outgoing messages from the
 * message queues, and sends them to respective destinations" (§4.2).
 *
 * One Forwarder drives all the mqueues of one accelerator (they
 * share one RC QP, §5.1) on one SNIC core, round-robin. For server
 * mqueues the destination is the client recorded in the tag table;
 * for client mqueues it is the queue's fixed backend (§4.3).
 */

#ifndef LYNX_LYNX_FORWARDER_HH
#define LYNX_LYNX_FORWARDER_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/nic.hh"
#include "net/stack.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"
#include "sim/task.hh"

namespace lynx::core {

/** Where a client mqueue's outgoing messages go. */
struct BackendRoute
{
    net::Address dst;
    net::Protocol proto = net::Protocol::Tcp;

    /** SNIC-local port the backend's responses come back to. */
    std::uint16_t srcPort = 0;

    /** Deadline for the backend's response; expiry surfaces as a
     *  message with a non-zero error status in the client mqueue. */
    sim::Tick responseTimeout = sim::milliseconds(50);
};

/** Timing knobs of the forwarding loop. */
struct ForwarderConfig
{
    /** CPU per forwarded message (ring bookkeeping, tag lookup). */
    sim::Tick forwardCpu = sim::nanoseconds(500);

    /** CPU per managed queue per polling sweep (round-robin scan). */
    sim::Tick scanPerQueue = sim::nanoseconds(15);

    /** TX slots fetched per pipelined RDMA read
     *  (SnicMqueue::pollTxBatch); 1 = one post + fetch round per
     *  slot, the unbatched behaviour as a batch of one. */
    int maxBatch = 1;

    /** Discovery band: the delay between a doorbell and the polling
     *  loop seeing it scales with observed idleness, clamp(idle/2,
     *  pollBackoffMin, pollBackoffMax). A queue that just went quiet
     *  is re-polled after the min, a long-idle one after the max.
     *  Equal ends (the default) give a fixed delay, the mean of half
     *  a poll round. @pre pollBackoffMin <= pollBackoffMax. */
    sim::Tick pollBackoffMin = sim::nanoseconds(1000);
    sim::Tick pollBackoffMax = sim::nanoseconds(1000);
};

/** @return the doorbell-to-discovery delay of a forwarder that made
 *  no progress for @p idle: clamp(idle/2, pollBackoffMin,
 *  pollBackoffMax). */
inline sim::Tick
discoveryDelay(const ForwarderConfig &cfg, sim::Tick idle)
{
    return std::clamp(idle / 2, cfg.pollBackoffMin, cfg.pollBackoffMax);
}

/** Egress pump for one accelerator's mqueues. */
class Forwarder
{
  public:
    /**
     * @param stack transport costs for client-facing responses.
     * @param backendStack transport costs for the persistent backend
     *        connections of client mqueues (§4.3).
     * @param tenants VF ledger (lynx/tenant.hh): TX batches are
     *        re-ordered into WRR traffic classes, each response
     *        closes its request, and a retired tenant's responses are
     *        dropped-and-counted, never delivered stale.
     */
    Forwarder(sim::Simulator &sim, std::string name, sim::Core &core,
              net::Nic &nic, net::StackProfile stack,
              net::StackProfile backendStack, TenantTable &tenants,
              ForwarderConfig cfg)
        : sim_(sim), name_(std::move(name)), core_(core), nic_(nic),
          stack_(stack), backendStack_(backendStack), tenants_(tenants),
          cfg_(cfg),
          activity_(sim),
          cResponses_(&stats_.counter("responses")),
          cBackendRequests_(&stats_.counter("backend_requests")),
          cBatchFetches_(&stats_.counter("batch_fetches")),
          cStaleResponses_(&stats_.counter("stale_responses")),
          cTenantStale_(&stats_.counter("tenant_stale_drops"))
    {
        // std::clamp needs lo <= hi.
        LYNX_ASSERT(cfg_.pollBackoffMin <= cfg_.pollBackoffMax, name_,
                    ": inverted discovery band ", cfg_.pollBackoffMin,
                    " > ", cfg_.pollBackoffMax);
        queues_.reserve(8);
        sim_.metrics().add("lynx.fwd." + name_, stats_);
    }

    ~Forwarder() { sim_.metrics().remove(stats_); }

    Forwarder(const Forwarder &) = delete;
    Forwarder &operator=(const Forwarder &) = delete;

    /**
     * Manage @p mq. Server queues need @p servicePort (the response's
     * source port); client queues need @p route.
     */
    void
    addQueue(SnicMqueue *mq, std::uint16_t servicePort,
             std::optional<BackendRoute> route = std::nullopt)
    {
        LYNX_ASSERT((mq->kind() == MqueueKind::Client) == route.has_value(),
                    name_, ": route must be given iff queue is client kind");
        queues_.push_back(Entry{mq, servicePort, route, false});
        std::size_t idx = queues_.size() - 1;
        mq->setTxActivityHandler([this, idx] {
            queues_[idx].pendingTx = true;
            activity_.open();
        });
    }

    /** Spawn the forwarding loop. */
    void
    start()
    {
        LYNX_ASSERT(!started_, name_, ": started twice");
        started_ = true;
        sim::spawn(sim_, run());
    }

    sim::StatSet &stats() { return stats_; }

  private:
    struct Entry
    {
        SnicMqueue *mq;
        std::uint16_t servicePort;
        std::optional<BackendRoute> route;
        bool pendingTx;
    };

    sim::Task
    run()
    {
        sim::Tick lastProgress = sim_.now();
        const auto maxBatch =
            static_cast<std::size_t>(std::max(cfg_.maxBatch, 1));
        // Reused across drains: a fetch allocates no batch vector.
        std::vector<TxMessage> batch;
        for (;;) {
            activity_.close();
            bool progress = false;
            // Round-robin scan cost over every managed queue.
            co_await core_.exec(cfg_.scanPerQueue * queues_.size());
            for (auto &e : queues_) {
                if (!e.pendingTx)
                    continue;
                if (e.mq->transportDead()) {
                    // Leave the flag armed and skip: polling a dead
                    // transport would burn a retry budget per sweep.
                    // The monitor's revival nudgeTx() reopens the
                    // gate once the queue is reachable again.
                    continue;
                }
                e.pendingTx = false;
                // Drain in pipelined batches: one RDMA fetch per group
                // of ready slots, one credit commit per drain.
                for (;;) {
                    batch.clear();
                    co_await e.mq->pollTxBatch(core_, maxBatch, batch);
                    if (batch.empty())
                        break;
                    progress = true;
                    cBatchFetches_->add();
                    if (batch.size() > 1 &&
                        e.mq->kind() == MqueueKind::Server)
                        orderByTenantClass(*e.mq, batch);
                    for (auto &txm : batch) {
                        co_await core_.exec(cfg_.forwardCpu);
                        std::optional<net::Message> out =
                            response(e, std::move(txm));
                        if (!out)
                            continue;
                        const net::StackProfile &prof =
                            e.mq->kind() == MqueueKind::Server
                                ? stack_
                                : backendStack_;
                        co_await core_.exec(prof.cost(
                            out->proto, net::Dir::Send, out->size()));
                        co_await nic_.send(std::move(*out));
                    }
                }
                if (e.mq->txCommitPending())
                    co_await e.mq->commitTxCons(core_);
                if (e.mq->transportDead()) {
                    // The drain aborted on a dead transport, so the
                    // ring may still hold rung doorbells. Re-arm the
                    // pending flag; the health monitor's revival
                    // nudgeTx() reopens the activity gate, and the
                    // loop parks (not spins) until then.
                    e.pendingTx = true;
                }
            }
            if (progress) {
                lastProgress = sim_.now();
            } else {
                co_await activity_.wait();
                co_await sim::sleep(
                    discoveryDelay(cfg_, sim_.now() - lastProgress));
            }
        }
    }

    /**
     * Re-order a fetched TX batch into WRR traffic classes: pick
     * tenants by weight (credit carried across batches in fwdWrr_,
     * so fairness holds over time, not just within one fetch) and
     * take each tenant's slots in their original FIFO order.
     * Default-VF slots ride in class 0 with weight 1. Pure
     * re-ordering — every slot is still forwarded (work-conserving),
     * only the egress order changes.
     */
    void
    orderByTenantClass(SnicMqueue &mq, std::vector<TxMessage> &batch)
    {
        scratchTenant_.clear();
        bool mixed = false;
        for (const TxMessage &txm : batch) {
            const ClientRef *c = mq.peekTag(txm.tag);
            TenantId t = c ? c->tenant : kDefaultVf;
            if (!scratchTenant_.empty() && t != scratchTenant_.back())
                mixed = true;
            scratchTenant_.push_back(t);
        }
        if (!mixed)
            return; // single class: order already correct
        std::size_t span = 0;
        for (TenantId t : scratchTenant_)
            span = std::max<std::size_t>(span, t + 1);
        scratchOrder_.clear();
        scratchTaken_.assign(batch.size(), 0);
        for (std::size_t n = 0; n < batch.size(); ++n) {
            std::size_t t = fwdWrr_.pick(
                span, [&](std::size_t cls) -> std::int64_t {
                    for (std::size_t i = 0; i < batch.size(); ++i)
                        if (!scratchTaken_[i] &&
                            scratchTenant_[i] == cls)
                            return tenants_.weight(
                                static_cast<TenantId>(cls));
                    return 0;
                });
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (!scratchTaken_[i] && scratchTenant_[i] == t) {
                    scratchTaken_[i] = 1;
                    scratchOrder_.push_back(i);
                    break;
                }
            }
        }
        std::vector<TxMessage> reordered;
        reordered.reserve(batch.size());
        for (std::size_t i : scratchOrder_)
            reordered.push_back(std::move(batch[i]));
        batch = std::move(reordered);
    }

    /**
     * Turn TX message @p txm of queue @p e into the message to send,
     * once its forwarding CPU is charged: for a server queue, the
     * response to the client its tag names; for a client queue, the
     * request to the queue's backend.
     * @return nullopt for a stale tag or a retired tenant's response
     * (counted, never sent).
     */
    std::optional<net::Message>
    response(Entry &e, TxMessage txm)
    {
        net::Message out;
        out.payload = std::move(txm.payload);
        if (e.mq->kind() == MqueueKind::Server) {
            auto c = e.mq->tryReleaseTag(txm.tag);
            if (!c) {
                // Only failover (a queue with a retry policy) makes
                // stale tags: a drained-and-re-queued request's
                // original answer, arriving after revival. The client
                // already gets (or got) the re-queued copy's
                // response, so this one is dropped — duplicates and
                // misdeliveries are both impossible.
                LYNX_ASSERT(e.mq->hasRetryPolicy(), e.mq->name(),
                            ": response with unknown tag ", txm.tag);
                cStaleResponses_->add();
                return std::nullopt;
            }
            ClientRef &client = *c;
            if (!tenants_.finish(client.tenant, client.tenantGen,
                                 sim_.now() - client.sentAt)) {
                // The tenant was retired while this request was in
                // flight: its slot drained (counted in the table) but
                // the response itself must never be delivered stale.
                cTenantStale_->add();
                return std::nullopt;
            }
            out.tenant = client.tenant;
            out.src = net::Address{nic_.node(), e.servicePort};
            out.dst = client.addr;
            out.proto = client.proto;
            out.seq = client.seq;
            out.sentAt = client.sentAt;
            out.traceId = client.traceId;
            if (sim::SpanCollector *spans = sim_.spans())
                spans->stamp(out.traceId, sim::Stage::ForwarderTx,
                             sim_.now());
            cResponses_->add();
        } else {
            // Client mqueue: fixed backend destination; remember the
            // tag so the (in-order) response can be matched.
            e.mq->notePending(txm.tag,
                              sim_.now() + e.route->responseTimeout);
            out.src = net::Address{nic_.node(), e.route->srcPort};
            out.dst = e.route->dst;
            out.proto = e.route->proto;
            out.sentAt = sim_.now();
            cBackendRequests_->add();
        }
        return out;
    }

    sim::Simulator &sim_;
    std::string name_;
    sim::Core &core_;
    net::Nic &nic_;
    net::StackProfile stack_;
    net::StackProfile backendStack_;
    TenantTable &tenants_;
    ForwarderConfig cfg_;
    sim::Gate activity_;
    std::vector<Entry> queues_;
    bool started_ = false;

    /** Forward-path WRR state + scratch (reused across batches). */
    WrrPicker fwdWrr_;
    std::vector<TenantId> scratchTenant_;
    std::vector<std::size_t> scratchOrder_;
    std::vector<char> scratchTaken_;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction. */
    sim::Counter *cResponses_;
    sim::Counter *cBackendRequests_;
    sim::Counter *cBatchFetches_;
    sim::Counter *cStaleResponses_;
    sim::Counter *cTenantStale_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_FORWARDER_HH
