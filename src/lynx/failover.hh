/**
 * @file
 * Remote-mqueue failover (extension; see docs/INTERNALS.md §7).
 *
 * The paper's prototype assumes accelerators and the fabric stay
 * healthy. This module adds the recovery half of the fault-injection
 * extension: a HealthMonitor per service that
 *
 *  - sweeps every dispatch target each `checkInterval`, counting a
 *    *strike* whenever a queue has requests in flight but its TX ring
 *    made no progress since the previous sweep;
 *  - declares a queue dead after `deadStrikes` consecutive strikes —
 *    or immediately when a ring access exhausted its software retry
 *    budget (SnicMqueue::transportDead) — and fails it over: the
 *    dispatcher stops routing to it and its in-flight requests are
 *    drained and re-queued to surviving mqueues (payload retention);
 *  - probes dead queues every `probeInterval`: first repairing the
 *    sequence gaps left by lost RX writes (kSlotSkipErr markers),
 *    then reading the consumer register, and reviving the queue once
 *    it is reachable again and has drained its backlog.
 *
 * State machine per queue:
 *
 *   healthy --(strikes==deadStrikes | transportDead)--> dead
 *   dead    --(repairGaps ok && probeAlive ok && backlog==0)--> healthy
 *
 * Clients never see a corrupt payload from any of this: re-queued
 * requests are re-executed from their retained byte-exact payloads,
 * and the tag-generation check drops the stale duplicate response if
 * the original accelerator answers after all (forwarder
 * `stale_responses`). Failover degrades throughput, not correctness.
 */

#ifndef LYNX_LYNX_FAILOVER_HH
#define LYNX_LYNX_FAILOVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "lynx/dispatcher.hh"
#include "lynx/snic_mqueue.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"
#include "sim/time.hh"

namespace lynx::core {

/** Failover knobs. A Runtime runs a HealthMonitor per service iff its
 *  mqueues have a retry policy (`mq.retry`, calibrated:
 *  calibration::rdmaSwRetryPolicy()); without one (the seed) no
 *  monitor runs. Calibrated values live in lynx/calibration.hh. */
struct FailoverConfig
{
    /** Sweep period of the health check. */
    sim::Tick checkInterval = sim::milliseconds(1);

    /** Consecutive no-progress sweeps (with work in flight) before a
     *  queue is declared dead. */
    int deadStrikes = 3;

    /** Probe period for dead queues (gap repair + liveness read). */
    sim::Tick probeInterval = sim::milliseconds(5);
};

/** Watches one service's mqueues; kills, drains and revives them. */
class HealthMonitor
{
  public:
    HealthMonitor(sim::Simulator &sim, std::string name,
                  Dispatcher &dispatcher, sim::Core &core,
                  FailoverConfig cfg)
        : sim_(sim), name_(std::move(name)), dispatcher_(dispatcher),
          core_(core), cfg_(cfg),
          cDied_(&stats_.counter("mqueues_died")),
          cRevived_(&stats_.counter("mqueues_revived")),
          cRequeued_(&stats_.counter("requests_requeued")),
          cProbes_(&stats_.counter("probes")),
          cStrikes_(&stats_.counter("strikes"))
    {}

    HealthMonitor(const HealthMonitor &) = delete;
    HealthMonitor &operator=(const HealthMonitor &) = delete;

    /** Spawn the sweep loop. */
    void
    start()
    {
        LYNX_ASSERT(!started_, name_, ": started twice");
        started_ = true;
        sim::spawn(sim_, run());
    }

    sim::StatSet &stats() { return stats_; }

  private:
    /** Per-queue health bookkeeping (parallel to the dispatcher's
     *  queue list). */
    struct QState
    {
        std::uint64_t lastTxPopped = 0;
        int strikes = 0;
        sim::Tick lastProbe = 0;
    };

    sim::Task
    run()
    {
        for (;;) {
            co_await sim::sleep(cfg_.checkInterval);
            // The dispatcher's queue list only grows (setup-time
            // registration); late services are picked up lazily.
            while (states_.size() < dispatcher_.queueCount())
                states_.push_back(QState{});
            for (std::size_t qi = 0; qi < states_.size(); ++qi) {
                if (dispatcher_.queueDead(qi))
                    co_await probe(qi);
                else
                    co_await check(qi);
            }
        }
    }

    static std::uint64_t
    txPopped(SnicMqueue &mq)
    {
        return mq.stats().counterValue("tx_popped");
    }

    /** Healthy-queue sweep: strike accounting + transport check. */
    sim::Co<void>
    check(std::size_t qi)
    {
        SnicMqueue &mq = dispatcher_.queueAt(qi);
        QState &st = states_[qi];
        if (mq.transportDead()) {
            // A ring access exhausted its retry budget: no need to
            // wait for strikes, the wire itself reported the death.
            co_await kill(qi);
            co_return;
        }
        std::uint64_t popped = txPopped(mq);
        if (mq.tagsInFlight() > 0 && popped == st.lastTxPopped) {
            ++st.strikes;
            cStrikes_->add();
            if (st.strikes >= cfg_.deadStrikes)
                co_await kill(qi);
        } else {
            st.strikes = 0;
        }
        st.lastTxPopped = popped;
    }

    /** healthy -> dead: exclude from dispatch, drain + re-queue. */
    sim::Co<void>
    kill(std::size_t qi)
    {
        dispatcher_.setQueueDead(qi, true);
        states_[qi].strikes = 0;
        states_[qi].lastProbe = sim_.now();
        cDied_->add();
        sim::warn(name_, ": mqueue ",
                  dispatcher_.queueAt(qi).name(), " declared dead");
        std::size_t moved = co_await dispatcher_.evacuate(core_, qi);
        cRequeued_->add(moved);
    }

    /** dead -> healthy?: repair gaps, read liveness, require the
     *  drained backlog before re-admitting the queue. */
    sim::Co<void>
    probe(std::size_t qi)
    {
        QState &st = states_[qi];
        if (sim_.now() - st.lastProbe < cfg_.probeInterval)
            co_return;
        st.lastProbe = sim_.now();
        cProbes_->add();
        SnicMqueue &mq = dispatcher_.queueAt(qi);
        // Gap repair doubles as the reachability test: its signalled
        // writes only complete once the path is healthy again.
        if (!co_await mq.repairGaps(core_))
            co_return;
        if (!co_await mq.probeAlive(core_))
            co_return;
        if (mq.transportDead())
            co_return;
        // Let the accelerator finish (or skip) everything that was in
        // its ring before the failure: reviving into a backlog would
        // mix drained-and-requeued work with fresh dispatches.
        if (mq.rxBacklogEstimate() != 0)
            co_return;
        dispatcher_.setQueueDead(qi, false);
        st.strikes = 0;
        st.lastTxPopped = txPopped(mq);
        cRevived_->add();
        sim::warn(name_, ": mqueue ", mq.name(), " revived");
        // Wake the forwarder: doorbells may have rung while the
        // queue's transport was down.
        mq.nudgeTx();
    }

    sim::Simulator &sim_;
    std::string name_;
    Dispatcher &dispatcher_;
    sim::Core &core_;
    FailoverConfig cfg_;
    std::vector<QState> states_;
    bool started_ = false;
    sim::StatSet stats_;

    sim::Counter *cDied_;
    sim::Counter *cRevived_;
    sim::Counter *cRequeued_;
    sim::Counter *cProbes_;
    sim::Counter *cStrikes_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_FAILOVER_HH
