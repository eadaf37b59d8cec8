/**
 * @file
 * SR-IOV-style virtualization of the dispatch plane (paper §4.5,
 * ROADMAP item 2): per-tenant *virtual functions* over one physical
 * Lynx port, so hundreds of tenants can share the SNIC dispatcher
 * without moving each other's tail latency.
 *
 * A TenantTable is the PF-side manager: it owns one Vf record per
 * tenant with
 *  - an SLA admission cap (max in-flight requests; excess arrivals
 *    are rejected with a counted drop reason — never silently),
 *  - an mqueue quota (ring tags a tenant may hold concurrently, so a
 *    burst cannot monopolize the RX rings),
 *  - a WRR weight consumed by the dispatch- and forward-path
 *    traffic classes, and
 *  - a tag-namespace generation: retiring a tenant bumps it, so
 *    responses to the retired generation's requests are dropped and
 *    counted instead of delivered stale.
 *
 * Every request belongs to some VF: untenanted traffic (tenant id 0)
 * is the *default VF*'s, registered with the table (weight 1, no cap,
 * no quota), never retired. Its one difference, kept by the
 * dispatcher: its work never waits in a class queue, so it keeps the
 * seed's timing bit for bit (tests/test_engine_golden.cc).
 *
 * Per-tenant metrics register under `tenant.<id>` in the simulator's
 * MetricsRegistry; every hot-path handle (counters, histograms) is
 * resolved once at tenant registration — the per-message path does
 * no string building and no registry lookups.
 */

#ifndef LYNX_LYNX_TENANT_HH
#define LYNX_LYNX_TENANT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "sim/time.hh"

namespace lynx::sim {
class Simulator;
}

namespace lynx::core {

/** Tenant identity carried in net::Message::tenant. */
using TenantId = std::uint16_t;

/** The default VF: untenanted traffic (tenant id 0). */
inline constexpr TenantId kDefaultVf = 0;

/** Per-tenant resource envelope (the SLA knob). */
struct TenantQuota
{
    /** WRR weight of the tenant's traffic class (dispatch and
     *  forward paths). Weights are relative shares — only ratios
     *  matter, so the same config is valid at any link rate
     *  (DESIGN.md §9 on normalization). Must be >= 1. */
    int weight = 1;

    /** Admission cap: requests admitted but not yet answered (or
     *  otherwise accounted). An arrival beyond the cap is rejected
     *  and counted under `tenant.<id>.rejected` plus the
     *  dispatcher's `dropped_tenant_reject`. 0 = unlimited. */
    std::uint32_t maxInFlight = 0;

    /** Mqueue quota: ring tags (RX slots + tag-table entries) the
     *  tenant may hold concurrently across the service's mqueues.
     *  Work beyond the quota waits in the tenant's class queue —
     *  deferred, not dropped. 0 = unlimited. */
    std::uint32_t mqueueQuota = 0;
};

/** Registration policy and defaults of the tenant VFs. */
struct TenantConfig
{
    /** Register unknown tenant ids on first sight with `defaults`
     *  (SR-IOV "VF pops into existence"). Off: unknown ids are
     *  rejected at admission. */
    bool autoRegister = true;

    /** Quota template for auto-registered tenants. */
    TenantQuota defaults;

    /** Hysteresis before a parked class queue is re-pumped after
     *  capacity frees (batches several completions into one pump). */
    sim::Tick drainDelay = sim::microseconds(2);
};

/**
 * Deterministic smooth weighted round-robin over a dense index
 * space (the nginx algorithm): each pick adds every eligible entry's
 * weight to its credit, selects the highest credit (lowest index on
 * ties), and charges the winner the total. Over any window of
 * `sum(weights)` consecutive picks with stable eligibility, entry i
 * is picked exactly `weight(i)` times — the bounded-window
 * proportionality invariant tests/test_tenant_properties.cc sweeps.
 */
class WrrPicker
{
  public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    /**
     * Pick among indices [0, n). @p eligible returns the entry's
     * weight, or 0/negative to skip it.
     * @return the winning index, or kNone if nothing is eligible.
     */
    template <typename WeightFn>
    std::size_t
    pick(std::size_t n, WeightFn &&eligible)
    {
        if (credit_.size() < n)
            credit_.resize(n, 0);
        lastAdds_.clear();
        std::int64_t total = 0;
        std::size_t best = kNone;
        for (std::size_t i = 0; i < n; ++i) {
            std::int64_t w = eligible(i);
            if (w <= 0)
                continue;
            credit_[i] += w;
            lastAdds_.push_back({i, w});
            total += w;
            if (best == kNone || credit_[i] > credit_[best])
                best = i;
        }
        if (best != kNone)
            credit_[best] -= total;
        lastBest_ = best;
        lastTotal_ = total;
        return best;
    }

    /**
     * Exactly undo the most recent pick(), as if it never happened.
     * A caller whose winner could not actually be served (ring or tag
     * table full — the message is parked, not placed) MUST refund the
     * pick: a consumed-but-unserved turn otherwise deterministically
     * aliases against the pick-retry cadence. Concretely, a pump that
     * places one message then fails on the next pick does two picks
     * per freed slot; with a period-4 weight pattern (3:1) the light
     * class's turn lands on the doomed pick every time and it starves
     * until the heavy class drains.
     */
    void
    unpick()
    {
        if (lastBest_ == kNone)
            return;
        credit_[lastBest_] += lastTotal_;
        for (const auto &[i, w] : lastAdds_)
            credit_[i] -= w;
        lastBest_ = kNone;
        lastAdds_.clear();
    }

    /** Forget accumulated credit (tests). */
    void
    reset()
    {
        credit_.assign(credit_.size(), 0);
        lastBest_ = kNone;
        lastAdds_.clear();
    }

  private:
    std::vector<std::int64_t> credit_;
    /** (index, weight) additions of the last pick, for unpick(); the
     *  vector's capacity is sticky, so the steady state allocates
     *  nothing (tests/test_sim_alloc.cc). */
    std::vector<std::pair<std::size_t, std::int64_t>> lastAdds_;
    std::size_t lastBest_ = kNone;
    std::int64_t lastTotal_ = 0;
};

/**
 * The PF-side tenant manager: registration/retirement, admission,
 * quota accounting and per-tenant metrics. One per Runtime, shared
 * by its dispatchers, mqueues and forwarders. Built with the default
 * VF (kDefaultVf) already registered.
 */
class TenantTable
{
  public:
    TenantTable(sim::Simulator &sim, TenantConfig cfg);
    ~TenantTable();

    TenantTable(const TenantTable &) = delete;
    TenantTable &operator=(const TenantTable &) = delete;

    const TenantConfig &config() const { return cfg_; }

    /** Register the next tenant id with quota @p q.
     *  @return the new id (sequential from 1; 0 is the default VF). */
    TenantId add(const TenantQuota &q);

    /** Register with the config's default quota. */
    TenantId add() { return add(cfg_.defaults); }

    /** Retire @p id: new arrivals are rejected, the tag-namespace
     *  generation is bumped so in-flight responses of the old
     *  generation are dropped-and-counted, never delivered.
     *  @pre @p id is not the default VF. */
    void retire(TenantId id);

    /** @return one past the highest registered id (dense tables in
     *  the dispatcher size themselves off this). */
    std::size_t idSpan() const { return vfs_.size(); }

    bool known(TenantId id) const { return id < vfs_.size(); }
    bool active(TenantId id) const { return known(id) && vf(id).active; }

    /** @return the current tag-namespace generation of @p id. */
    std::uint16_t
    generation(TenantId id) const
    {
        return known(id) ? vf(id).gen : 0;
    }

    /** @return whether (@p id, @p gen) names the current generation
     *  (a retired generation's work must never reach a client). */
    bool
    current(TenantId id, std::uint16_t gen) const
    {
        return known(id) && vf(id).gen == gen;
    }

    /**
     * Admission decision for one arrival of @p id. Auto-registers
     * unknown ids when configured. Accepts (and counts the request
     * in flight) unless the tenant is unknown/retired or at its
     * maxInFlight cap — then rejects, counted.
     */
    bool admit(TenantId id);

    /** The request was answered to a live generation: record its
     *  latency, release its in-flight slot. */
    void completed(TenantId id, sim::Tick latency);

    /**
     * A response resolved at the forwarder: deliver or drop?
     * Current generation -> completed(), returns true. Stale
     * generation (tenant retired since dispatch) -> counted under
     * `stale_dropped`, in-flight slot released, returns false — the
     * caller must NOT send the response.
     */
    bool finish(TenantId id, std::uint16_t gen, sim::Tick latency);

    /** The request died on the dispatch path after admission (no
     *  live queue, dead transport): release its in-flight slot,
     *  counted under `lost` — never silent. */
    void abandoned(TenantId id);

    /** @return whether @p id may claim another ring tag (mqueue
     *  quota; the WRR eligibility predicate). */
    bool
    belowTagQuota(TenantId id) const
    {
        if (!known(id))
            return true;
        const Vf &v = vf(id);
        return v.quota.mqueueQuota == 0 ||
               v.tagsHeld < v.quota.mqueueQuota;
    }

    /** Ring-tag accounting, driven by SnicMqueue::allocTag and the
     *  tag release paths so failover requeues stay balanced. */
    void noteTagAlloc(TenantId id);
    void noteTagRelease(TenantId id);

    /** @return the tenant's WRR weight (1 for unknown ids). */
    int
    weight(TenantId id) const
    {
        return known(id) ? vf(id).quota.weight : 1;
    }

    std::uint32_t
    inFlight(TenantId id) const
    {
        return known(id) ? vf(id).inFlight : 0;
    }

    std::uint32_t
    tagsHeld(TenantId id) const
    {
        return known(id) ? vf(id).tagsHeld : 0;
    }

    /** Per-tenant stat set (tests; metrics register as
     *  `tenant.<id>`). */
    sim::StatSet &statsOf(TenantId id) { return vf(id).stats; }

    /** Table-wide stats (`tenant.table`). */
    sim::StatSet &stats() { return stats_; }

    /** Register a capacity-freed hook, fired whenever an in-flight
     *  slot or ring tag is released — the Runtime uses it to reopen
     *  parked class queues (event-driven, no polling). */
    void
    onCapacityFreed(std::function<void()> fn)
    {
        hooks_.push_back(std::move(fn));
    }

  private:
    /** One virtual function. Heap-pinned: the metrics registry and
     *  the pre-resolved handles hold addresses into it. */
    struct Vf
    {
        bool active = true;
        std::uint16_t gen = 0;
        TenantQuota quota;
        std::uint32_t inFlight = 0;
        std::uint32_t tagsHeld = 0;

        sim::StatSet stats;
        /** Hot-path handles, resolved once at registration — the
         *  per-message path never concatenates a `tenant.<id>.*`
         *  string or walks the registry (test_sim_alloc.cc locks
         *  this down). */
        sim::Counter *cAdmitted = nullptr;
        sim::Counter *cRejected = nullptr;
        sim::Counter *cStaleDropped = nullptr;
        sim::Counter *cLost = nullptr;
        sim::Histogram *hInflight = nullptr;
        sim::Histogram *hLatency = nullptr;
    };

    /** Accounting calls name admitted (so registered) VFs only. */
    Vf &vf(TenantId id) { return *vfs_.at(id); }
    const Vf &vf(TenantId id) const { return *vfs_[id]; }

    TenantId registerVf(const TenantQuota &q);

    void fireCapacityFreed();

    sim::Simulator &sim_;
    TenantConfig cfg_;
    std::vector<std::unique_ptr<Vf>> vfs_;
    std::vector<std::function<void()>> hooks_;

    sim::StatSet stats_;
    sim::Counter *cAdded_;
    sim::Counter *cRetired_;
    sim::Counter *cAutoRegistered_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_TENANT_HH
