/**
 * @file
 * The Message Dispatcher (paper Fig. 4): routes messages received by
 * the SNIC network server into server-mqueue RX rings "according to
 * the dispatching policy, e.g. load balancing for stateless services,
 * or steering messages to specific queues for stateful ones" (§4.2).
 *
 * Every request is admitted to a tenant VF (lynx/tenant.hh), then
 * route() picks a queue from the flow tuple and claim() takes a tag
 * and stages or pushes. One failure rule (parkOrDrop()) parks a
 * registered VF's request that found no room and drops the default
 * VF's. Every drop lands in exactly one DropReason counter.
 *
 * When a target mqueue coalesces RX writes (SnicMqueueConfig::maxBatch
 * > 1) the dispatcher stages messages for it and hands them to
 * SnicMqueue::rxPushBatch() in groups, so back-to-back arrivals for
 * the same queue share one coalesced RDMA write and one doorbell. A
 * staged batch is flushed either when it reaches the queue's
 * `maxBatch` or when the caller observes the ingress going idle
 * (Runtime::listenLoop flushes when the endpoint backlog drains), so
 * batching never adds latency to an isolated message.
 */

#ifndef LYNX_LYNX_DISPATCHER_HH
#define LYNX_LYNX_DISPATCHER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/message.hh"
#include "net/steering.hh"
#include "sim/co.hh"
#include "sim/logging.hh"
#include "sim/processor.hh"
#include "sim/stats.hh"

namespace lynx::core {

/** Queue-selection policy of one service. */
enum class DispatchPolicy
{
    /** Rotate across mqueues (stateless load balancing). */
    RoundRobin,

    /** Steer by client address hash (stateful services: one client
     *  always lands on the same mqueue). */
    SourceHash,

    /** Toeplitz-hash RSS over the (src, dst, ports) flow tuple
     *  through an indirection table (net/steering.hh) — the steering
     *  decision commodity NIC hardware makes, so per-flow affinity
     *  here matches what a real deployment would see. */
    Rss,
};

/** Dispatch-plane admission control (the default VF's; registered
 *  VFs carry their own SLA caps in the TenantTable). */
struct AdmissionConfig
{
    /** Master switch. Off (default): the seed path, bit-identical —
     *  overload is absorbed by ring overflow / PFC alone. */
    bool enabled = false;

    /** Shed an arrival when in-flight ring tags across the service's
     *  usable mqueues have reached this fraction of their total tag
     *  capacity. Sheds are counted
     *  (`admission.<svc>.shed_ring_full`) — never silent. */
    double shedOccupancy = 0.9;
};

/** Dispatcher behaviour switches. */
struct DispatcherConfig
{
    /** CPU charged per dispatched message. */
    sim::Tick dispatchCpu = 0;

    /** RSS indirection-table shape for DispatchPolicy::Rss. */
    net::steer::RssConfig rss = {};

    /** Dispatch-plane admission control (default VF). */
    AdmissionConfig admission = {};
};

/** Why the dispatcher dropped a request. Every request that fails
 *  in the dispatch plane lands in exactly one of these. */
enum class DropReason : std::uint8_t
{
    Oversized,    ///< larger than a ring slot
    NoTag,        ///< the chosen mqueue's tag table was full
    RingFull,     ///< the chosen mqueue's RX ring was full
    Transport,    ///< on a failed-over mqueue, no payload retained
    NoLiveQueue,  ///< every mqueue is dead or transport-failed
    TenantReject, ///< refused by the TenantTable's SLA admission
    Shed,         ///< shed by the default VF's occupancy gate
};

/** Number of DropReason values. */
inline constexpr std::size_t kDropReasons =
    static_cast<std::size_t>(DropReason::Shed) + 1;

/** Dispatches one service's ingress traffic to its mqueues. */
class Dispatcher
{
  public:
    /** @param tenants the VF ledger every request is admitted to. */
    Dispatcher(std::string name, DispatchPolicy policy,
               TenantTable &tenants, DispatcherConfig cfg = {})
        : name_(std::move(name)), policy_(policy), tenants_(tenants),
          cfg_(cfg),
          cDispatched_(&stats_.counter("dispatched")),
          cBatchFlushes_(&stats_.counter("batch_flushes")),
          cRequeued_(&stats_.counter("requeued")),
          rss_(cfg_.rss),
          cSteerPicks_(&steerStats_.counter("rss_picks")),
          cSteerFallbacks_(&steerStats_.counter("rss_fallbacks")),
          cAdmitted_(&admissionStats_.counter("admitted"))
    {
        // Registered under the names the benchmarks sum into their
        // failure accounting; the admission shed lives in the
        // admission stat set.
        static constexpr const char *kNames[kDropReasons] = {
            "dropped_oversized",     "dropped_no_tag",
            "dropped_ring_full",     "dropped_transport",
            "dropped_no_live_queue", "dropped_tenant_reject",
            "shed_ring_full"};
        for (std::size_t r = 0; r < kDropReasons; ++r) {
            sim::StatSet &set =
                r == static_cast<std::size_t>(DropReason::Shed)
                    ? admissionStats_
                    : stats_;
            cDropped_[r] = &set.counter(kNames[r]);
        }
    }

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /** Register a server mqueue as a dispatch target. */
    void
    addQueue(SnicMqueue *mq)
    {
        LYNX_ASSERT(mq->kind() == MqueueKind::Server,
                    "dispatcher targets must be server mqueues");
        queues_.push_back(mq);
        dead_.push_back(0);
        staged_.emplace_back();
        if (mq->maxBatch() > 1)
            staged_.back().reserve(mq->maxBatch());
    }

    /** @return registered queue count. */
    std::size_t queueCount() const { return queues_.size(); }

    /** @return queue @p qi (health monitor / test access). */
    SnicMqueue &queueAt(std::size_t qi) { return *queues_[qi]; }

    /** Exclude (or re-admit) queue @p qi from dispatch decisions.
     *  Set by the health monitor around failover; all-alive routing
     *  is bit-identical to the seed's. */
    void
    setQueueDead(std::size_t qi, bool dead)
    {
        dead_[qi] = dead ? 1 : 0;
    }

    /** @return whether @p qi is excluded from dispatch. */
    bool queueDead(std::size_t qi) const { return dead_[qi] != 0; }

    /**
     * Dispatch @p msg: admit it to its VF, pick an mqueue, allocate a
     * response tag for the client, push into the RX ring or stage it
     * (see claim(); callers must eventually flush(), see
     * hasStaged()). Charges CPU on @p core.
     */
    sim::Co<void>
    dispatch(sim::Core &core, net::Message msg)
    {
        LYNX_ASSERT(!queues_.empty(), name_, ": no mqueues registered");
        co_await core.exec(cfg_.dispatchCpu);
        // Larger than a ring slot (one size per service): drop like
        // an oversized datagram instead of corrupting the ring.
        if (msg.size() > queues_[0]->layout().maxPayload()) {
            drop(DropReason::Oversized);
            co_return;
        }
        TenantId t = msg.tenant;
        if (cfg_.admission.enabled && t == kDefaultVf) {
            if (!admitOccupancy()) {
                // Shed at the dispatch plane instead of letting the
                // overload deepen the rings: counted, never silent.
                drop(DropReason::Shed);
                co_return;
            }
            cAdmitted_->add();
        }
        if (!tenants_.admit(t)) {
            // Admission reject IS the SLA knob: an over-cap (or
            // retired/unknown) tenant's arrival is refused with a
            // counted drop reason, keeping "no silent loss".
            drop(DropReason::TenantReject);
            co_return;
        }
        Pending p{std::move(msg.payload), clientOf(msg)};
        if (!parks(t)) {
            Claim c = deliver(core, p);
            Outcome o = co_await c;
            if (o == Outcome::Refused)
                o = co_await pushFailed(core, c.qi, c.tag, p);
            settle(p, o);
            co_return;
        }
        if (classes_.size() <= t)
            classes_.resize(tenants_.idSpan());
        classes_[t].push_back(std::move(p));
        ++tenantPendingTotal_;
        co_await pumpTenants(core);
        if (tenantPendingTotal_ != 0 && backlogHook_)
            backlogHook_();
    }

    /** @return whether staged messages await a flush(). */
    bool hasStaged() const { return stagedCount_ != 0; }

    /** @return whether some staged batch targets a queue deep enough
     *  in earlier in-flight requests (tags allocated beyond the
     *  staged ones) that lingering for more company is (nearly)
     *  free: the accelerator would not reach the staged message
     *  immediately anyway. The depth threshold scales with the batch
     *  size — deep batches are only worth waiting for behind a deep
     *  backlog. An idle queue returns false, so an isolated message
     *  is flushed without delay. */
    bool
    stagedBehindBusyRing() const
    {
        for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
            std::size_t minExcess = queues_[qi]->maxBatch() / 4 + 1;
            if (!staged_[qi].empty() &&
                queues_[qi]->tagsInFlight() >=
                    staged_[qi].size() + minExcess)
                return true;
        }
        return false;
    }

    /** Push every staged batch out (idle-ingress flush point). */
    sim::Co<void>
    flush(sim::Core &core)
    {
        for (std::size_t qi = 0; qi < queues_.size(); ++qi)
            if (!staged_[qi].empty())
                co_await flushQueue(core, qi);
    }

    /**
     * Failover drain of queue @p qi (health monitor, after
     * setQueueDead): release every in-flight tag — staged and already
     * pushed — and re-queue the retained request payloads to
     * surviving mqueues. Requests without a retained payload (or with
     * no live queue left) are dropped and counted.
     * @return how many requests were successfully re-queued.
     */
    sim::Co<std::size_t>
    evacuate(sim::Core &core, std::size_t qi)
    {
        SnicMqueue &mq = *queues_[qi];
        std::size_t moved = 0;

        // Staged but never pushed: their payloads are at hand
        // whether or not the queue retains copies.
        std::vector<Staged> batch = std::move(staged_[qi]);
        staged_[qi].clear();
        stagedCount_ -= batch.size();
        for (Staged &s : batch) {
            if (co_await redispatch(core, std::move(s.payload),
                                    mq.releaseTag(s.tag)) ==
                Outcome::Placed)
                ++moved;
        }

        // Pushed and unanswered (or still being pushed: a push that
        // later fails finds its tag gone and leaves the request to
        // this drain). Only re-queueable where the queue retained
        // the payload (it has a retry policy).
        for (std::uint32_t tag : mq.allocatedTags()) {
            auto c = mq.tryReleaseTag(tag);
            if (!c)
                continue;
            if (c->payload.empty() && !mq.hasRetryPolicy()) {
                drop(DropReason::Transport, &*c);
                continue;
            }
            net::Payload payload = c->payload;
            if (co_await redispatch(core, std::move(payload),
                                    std::move(*c)) == Outcome::Placed)
                ++moved;
        }
        cRequeued_->add(moved);
        co_return moved;
    }

    sim::StatSet &stats() { return stats_; }

    /** RSS steering stats (`steer.<svc>`): picks and dead-home
     *  fallbacks. All zero unless the policy is Rss. */
    sim::StatSet &steerStats() { return steerStats_; }

    /** Admission stats (`admission.<svc>`): admitted vs shed. All
     *  zero unless AdmissionConfig::enabled. */
    sim::StatSet &admissionStats() { return admissionStats_; }

    /** @{ @name Tenant traffic classes (lynx/tenant.hh)
     *
     *  A registered VF's admitted requests wait in its class queue;
     *  the pump places queued work onto the mqueues in smooth-WRR
     *  order, subject to each tenant's mqueue quota. The pump is
     *  work-conserving: any tenant with queued work and quota
     *  headroom keeps the rings busy, whatever the others do. */

    /** @return whether any class queue holds deferred work. */
    bool hasTenantPending() const { return tenantPendingTotal_ != 0; }

    /** @return total messages across all class queues. */
    std::size_t tenantPending() const { return tenantPendingTotal_; }

    /** Called (if set) whenever the dispatcher leaves work deferred
     *  in a class queue — the Runtime's drain task wakes on it. */
    void
    setTenantBacklogHook(std::function<void()> fn)
    {
        backlogHook_ = std::move(fn);
    }

    /**
     * Drain the class queues: repeatedly WRR-pick an eligible
     * tenant (non-empty class, below its mqueue quota) and deliver
     * its oldest message. Stops when nothing is eligible or a message
     * is parked (freed capacity re-triggers via the backlog hook /
     * TenantTable capacity hooks). Staged work awaits a flush().
     */
    sim::Co<void>
    pumpTenants(sim::Core &core)
    {
        if (tenantPendingTotal_ == 0)
            co_return;
        // Ends on a pick of nothing or on a park (which refunds the
        // pick), so no served pick is left for a later unpick().
        for (;;) {
            std::size_t t = wrr_.pick(
                classes_.size(), [&](std::size_t i) -> std::int64_t {
                    if (classes_[i].empty())
                        return 0;
                    TenantId id = static_cast<TenantId>(i);
                    if (!tenants_.belowTagQuota(id))
                        return 0;
                    return tenants_.weight(id);
                });
            if (t == WrrPicker::kNone)
                co_return;
            Pending p = std::move(classes_[t].front());
            classes_[t].pop_front();
            --tenantPendingTotal_;
            Claim c = deliver(core, p);
            Outcome o = co_await c;
            if (o == Outcome::Refused)
                o = co_await pushFailed(core, c.qi, c.tag, p);
            if (!settle(p, o))
                co_return;
        }
    }
    /** @} */

  private:
    struct Staged
    {
        net::Payload payload;
        std::uint32_t tag;
    };

    /** One admitted request not yet in a ring. */
    struct Pending
    {
        net::Payload payload;
        ClientRef client;
    };

    /** How one placement attempt ended. */
    enum class Outcome : std::uint8_t
    {
        Placed,    ///< in a ring or staged (possibly re-dispatched)
        Dropped,   ///< terminal, already counted by drop()
        NoTag,     ///< tag table full, nothing claimed
        RingFull,  ///< the ring rejected the push, tag released
        Evacuated, ///< evacuate() took the tag mid-push and owns it
        Parked,    ///< staged, but the flush it filled parked work
        Refused,   ///< the ring refused the push: pushFailed() decides
    };

    /**
     * What claim() leaves its caller to await: nothing (no tag, or
     * staged), the unstaged push of the claimed tag, or the flush of
     * the batch the claim filled. The one ring await of a placement
     * thus runs in the caller's own frame. Awaiting a Claim yields
     * its Outcome; a refused push yields Refused, which the caller
     * settles with pushFailed().
     */
    struct [[nodiscard]] Claim
    {
        Dispatcher &d;
        std::size_t qi;
        Outcome outcome; ///< when there is nothing to await
        std::uint32_t tag;
        sim::Co<std::size_t> push;
        sim::Co<bool> flush;

        bool await_ready() const noexcept { return !push && !flush; }

        template <sim::SimPromise P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h)
        {
            return push ? push.operator co_await().await_suspend(h)
                        : flush.operator co_await().await_suspend(h);
        }

        Outcome
        await_resume()
        {
            if (flush)
                return flush.operator co_await().await_resume()
                           ? Outcome::Parked
                           : Outcome::Placed;
            if (!push)
                return outcome;
            if (push.operator co_await().await_resume() == 0)
                return Outcome::Refused;
            d.cDispatched_->add();
            return Outcome::Placed;
        }
    };

    /** Count one dropped request under @p why, and keep the
     *  TenantTable's ledger: an admitted request (@p client given) is
     *  abandoned, returning its in-flight slot exactly once. */
    void
    drop(DropReason why, const ClientRef *client = nullptr)
    {
        cDropped_[static_cast<std::size_t>(why)]->add();
        if (client)
            tenants_.abandoned(client->tenant);
    }

    /** @return whether VF @p t's requests wait in a class queue.
     *  The default VF's never do: placed on arrival, dropped when no
     *  ring takes them (the seed's UDP semantics). */
    static bool parks(TenantId t) { return t != kDefaultVf; }

    /**
     * The one failure rule for an admitted request that found no tag
     * or ring room: a registered VF's is parked at the head of its
     * class (FIFO order kept) and the pick that served nothing is
     * refunded, or the retry cadence aliases against the weight
     * pattern and can starve a class (WrrPicker::unpick). The
     * default VF's is dropped under @p why.
     * @return whether the request was parked.
     */
    bool
    parkOrDrop(Pending &p, DropReason why)
    {
        TenantId t = p.client.tenant;
        if (!parks(t)) {
            drop(why, &p.client);
            return false;
        }
        classes_[t].push_front(std::move(p));
        ++tenantPendingTotal_;
        wrr_.unpick();
        return true;
    }

    /** Route admitted request @p p and claim() the queue; no live
     *  queue drops it (an already-settled Claim). */
    Claim
    deliver(sim::Core &core, Pending &p)
    {
        std::size_t qi = route(p.client.addr, p.client.dst);
        if (qi == kNoQueue) {
            drop(DropReason::NoLiveQueue, &p.client);
            return {*this, qi, Outcome::Dropped, 0, {}, {}};
        }
        return claim(core, qi, p, /*stage=*/true);
    }

    /** Settle a delivered request's outcome @p o: no tag or ring room
     *  goes to parkOrDrop(). A Refused push must have gone through
     *  pushFailed() first, or its tag stays claimed and the request
     *  is lost uncounted.
     *  @return false when it was parked (the pump stops). */
    bool
    settle(Pending &p, Outcome o)
    {
        LYNX_DEBUG_ASSERT(o != Outcome::Refused,
                          "a refused push skipped pushFailed()");
        if (o == Outcome::NoTag || o == Outcome::RingFull)
            return !parkOrDrop(p, o == Outcome::NoTag
                                      ? DropReason::NoTag
                                      : DropReason::RingFull);
        return o != Outcome::Parked;
    }

    /** The ClientRef of an ingress message: who to answer and the
     *  flow tuple failover re-routes by. The payload copy failover
     *  re-queues is taken by the mqueue at allocTag(). */
    ClientRef
    clientOf(const net::Message &msg) const
    {
        ClientRef c;
        c.addr = msg.src;
        c.dst = msg.dst;
        c.proto = msg.proto;
        c.seq = msg.seq;
        c.sentAt = msg.sentAt;
        c.traceId = msg.traceId;
        c.tenant = msg.tenant;
        c.tenantGen = tenants_.generation(msg.tenant);
        return c;
    }

    /**
     * Claim queue @p qi for request @p p: allocate a response tag,
     * then stage it for a coalesced flush (with @p stage, on a
     * batching queue) or leave it to push now. The push, or the
     * flush of a batch the claim filled, is the returned Claim's to
     * await. On NoTag, and on a refused push until pushFailed()
     * returns RingFull, @p p is intact, so it may be parked.
     */
    Claim
    claim(sim::Core &core, std::size_t qi, Pending &p, bool stage)
    {
        SnicMqueue &mq = *queues_[qi];
        auto tag = mq.allocTag(p.client, p.payload);
        if (!tag)
            return {*this, qi, Outcome::NoTag, 0, {}, {}};
        if (stage && mq.maxBatch() > 1) {
            staged_[qi].push_back({std::move(p.payload), *tag});
            ++stagedCount_;
            if (staged_[qi].size() < mq.maxBatch())
                return {*this, qi, Outcome::Placed, *tag, {}, {}};
            return {*this, qi, Outcome::Placed, *tag, {},
                    flushQueue(core, qi)};
        }
        return {*this, qi, Outcome::Placed, *tag,
                mq.rxPush(core, p.payload, *tag), {}};
    }

    /**
     * The post-push rule, shared by single and batched pushes:
     * release the tag; if it was already gone, evacuate() owns the
     * request; if the queue's transport died, re-dispatch to a
     * surviving queue right away; otherwise the ring was full (@p p
     * gets the released client back).
     */
    sim::Co<Outcome>
    pushFailed(sim::Core &core, std::size_t qi, std::uint32_t tag,
               Pending &p)
    {
        SnicMqueue &mq = *queues_[qi];
        auto c = mq.tryReleaseTag(tag);
        if (!c)
            co_return Outcome::Evacuated;
        if (mq.transportDead())
            co_return co_await redispatch(core, std::move(p.payload),
                                          std::move(*c));
        p.client = std::move(*c);
        co_return Outcome::RingFull;
    }

    /**
     * Route one request (an evacuated in-flight one, or a push whose
     * transport just died) to a live, transport-healthy mqueue with
     * an immediate (unstaged) push.
     * @return Placed, Evacuated, or Dropped (counted once, under
     * dropped_no_live_queue, when no queue takes it).
     */
    sim::Co<Outcome>
    redispatch(sim::Core &core, net::Payload payload, ClientRef client)
    {
        Pending p{std::move(payload), std::move(client)};
        for (std::size_t tries = queues_.size(); tries > 0; --tries) {
            std::size_t qi = route(p.client.addr, p.client.dst);
            if (qi == kNoQueue)
                break;
            Claim c = claim(core, qi, p, /*stage=*/false);
            Outcome o = co_await c;
            if (o == Outcome::Refused)
                o = co_await pushFailed(core, qi, c.tag, p);
            LYNX_DEBUG_ASSERT(o != Outcome::Refused,
                              "a refused push skipped pushFailed()");
            if (o != Outcome::NoTag && o != Outcome::RingFull)
                co_return o;
            // That queue is full; try the next pick.
        }
        drop(DropReason::NoLiveQueue, &p.client);
        co_return Outcome::Dropped;
    }

    /** Push queue @p qi's staged batch; what the ring refused goes
     *  through pushFailed() and, on RingFull, parkOrDrop().
     *  @return whether some request was parked. */
    sim::Co<bool>
    flushQueue(sim::Core &core, std::size_t qi)
    {
        // Move the batch out before any suspension so a concurrent
        // dispatch() can stage into a fresh vector.
        std::vector<Staged> batch = std::move(staged_[qi]);
        staged_[qi].clear();
        stagedCount_ -= batch.size();
        std::vector<SnicMqueue::RxItem> items;
        items.reserve(batch.size());
        for (const Staged &s : batch)
            items.push_back({s.payload, s.tag, 0});
        std::size_t accepted =
            co_await queues_[qi]->rxPushBatch(core, items);
        cDispatched_->add(accepted);
        cBatchFlushes_->add();
        bool parked = false;
        for (std::size_t j = accepted; j < batch.size(); ++j) {
            Pending p{std::move(batch[j].payload), {}};
            if (co_await pushFailed(core, qi, batch[j].tag, p) ==
                Outcome::RingFull)
                parked |= parkOrDrop(p, DropReason::RingFull);
        }
        co_return parked;
    }

    static constexpr std::size_t kNoQueue =
        static_cast<std::size_t>(-1);

    /** @return whether @p qi can take new work right now. */
    bool
    usable(std::size_t qi) const
    {
        return dead_[qi] == 0 && !queues_[qi]->transportDead();
    }

    /**
     * The one routing decision, for ingress and re-queued requests
     * alike: a policy-chosen home queue for the flow (@p src, @p dst),
     * then a linear probe over usable queues. All-alive routing is
     * bit-identical to the seed policies: RoundRobin advances its
     * cursor once, SourceHash and Rss land on their home queue. A
     * flow keeps its queue while it is alive and a stable fallback
     * while it is not. RSS decisions are counted, fallbacks (home
     * dead) too.
     * @return the queue index, or kNoQueue when none is usable.
     */
    std::size_t
    route(const net::Address &src, const net::Address &dst)
    {
        std::size_t n = queues_.size();
        std::size_t home = 0;
        switch (policy_) {
          case DispatchPolicy::RoundRobin:
            home = rr_ % n;
            break;
          case DispatchPolicy::SourceHash:
            home = (src.node * 0x9e3779b97f4a7c15ull +
                    src.port * 0x85ebca6bull) % n;
            break;
          case DispatchPolicy::Rss:
            // The real Toeplitz hash over the flow tuple
            // (net/steering.hh): the queue RSS hardware would pick.
            home = rss_.pick(src, dst, n);
            break;
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::size_t qi = (home + i) % n;
            if (!usable(qi))
                continue;
            if (policy_ == DispatchPolicy::RoundRobin)
                rr_ += i + 1;
            if (policy_ == DispatchPolicy::Rss) {
                cSteerPicks_->add();
                if (i != 0)
                    cSteerFallbacks_->add();
            }
            return qi;
        }
        if (policy_ == DispatchPolicy::RoundRobin)
            rr_ += n;
        return kNoQueue;
    }

    /** Occupancy gate of the default VF's admission: sum in-flight
     *  ring tags over the usable mqueues against their tag capacity.
     *  Pure arithmetic — no suspension — so enabling admission under
     *  uncongested load perturbs no timestamps. */
    bool
    admitOccupancy() const
    {
        std::size_t used = 0;
        std::size_t cap = 0;
        for (std::size_t qi = 0; qi < queues_.size(); ++qi) {
            if (!usable(qi))
                continue;
            used += queues_[qi]->tagsInFlight();
            cap += queues_[qi]->tagCapacity();
        }
        if (cap == 0)
            return false; // nothing usable: shed, counted
        return static_cast<double>(used) <
               cfg_.admission.shedOccupancy * static_cast<double>(cap);
    }

    std::string name_;
    DispatchPolicy policy_;
    TenantTable &tenants_;
    DispatcherConfig cfg_;
    std::vector<SnicMqueue *> queues_;
    /** Failover exclusion flags (parallel to queues_). */
    std::vector<char> dead_;
    /** Per-queue staged batches (parallel to queues_). */
    std::vector<std::vector<Staged>> staged_;
    std::size_t stagedCount_ = 0;
    std::size_t rr_ = 0;

    /** Per-tenant class queues, indexed by tenant id (the default
     *  VF's unused); sized lazily against the TenantTable's id span. */
    std::vector<std::deque<Pending>> classes_;
    std::size_t tenantPendingTotal_ = 0;
    WrrPicker wrr_;
    std::function<void()> backlogHook_;

    sim::StatSet stats_;

    /** Hot-path counters, resolved once at construction. */
    sim::Counter *cDispatched_;
    sim::Counter *cBatchFlushes_;
    sim::Counter *cRequeued_;
    sim::Counter *cDropped_[kDropReasons];

    /** RSS steering state (policy Rss only; the table itself is
     *  cheap enough to sit here unconditionally). */
    net::steer::RssSteering rss_;

    sim::StatSet steerStats_;
    sim::StatSet admissionStats_;
    sim::Counter *cSteerPicks_;
    sim::Counter *cSteerFallbacks_;
    sim::Counter *cAdmitted_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_DISPATCHER_HH
