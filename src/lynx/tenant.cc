#include "tenant.hh"

#include <string>

#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace lynx::core {

TenantTable::TenantTable(sim::Simulator &sim, TenantConfig cfg)
    : sim_(sim), cfg_(cfg),
      cAdded_(&stats_.counter("added")),
      cRetired_(&stats_.counter("retired")),
      cAutoRegistered_(&stats_.counter("auto_registered"))
{
    sim_.metrics().add("tenant.table", stats_);
    // The default VF: weight 1, no admission cap, no mqueue quota.
    registerVf(TenantQuota{});
}

TenantTable::~TenantTable()
{
    for (auto &v : vfs_)
        sim_.metrics().remove(v->stats);
    sim_.metrics().remove(stats_);
}

TenantId
TenantTable::add(const TenantQuota &q)
{
    cAdded_->add();
    return registerVf(q);
}

TenantId
TenantTable::registerVf(const TenantQuota &q)
{
    LYNX_ASSERT(q.weight >= 1, "tenant weight must be >= 1");
    LYNX_ASSERT(vfs_.size() < 0xffff, "tenant id space exhausted");
    auto v = std::make_unique<Vf>();
    v->quota = q;
    // Resolve every hot-path handle now; admissions and completions
    // must never build a "tenant.<id>.x" string or probe the
    // registry per message.
    v->cAdmitted = &v->stats.counter("admitted");
    v->cRejected = &v->stats.counter("rejected");
    v->cStaleDropped = &v->stats.counter("stale_dropped");
    v->cLost = &v->stats.counter("lost");
    v->hInflight = &v->stats.histogram("inflight");
    v->hLatency = &v->stats.histogram("latency");
    vfs_.push_back(std::move(v));
    TenantId id = static_cast<TenantId>(vfs_.size() - 1);
    sim_.metrics().add("tenant." + std::to_string(id),
                       vfs_.back()->stats);
    return id;
}

void
TenantTable::retire(TenantId id)
{
    LYNX_ASSERT(id != kDefaultVf, "the default VF cannot be retired");
    if (!known(id) || !vf(id).active)
        return;
    Vf &v = vf(id);
    v.active = false;
    // Bump the tag-namespace generation: every ClientRef dispatched
    // so far carries the old one, so its response fails the
    // current() check at the forwarder and is dropped-and-counted
    // instead of delivered to a client that no longer exists.
    v.gen = static_cast<std::uint16_t>(v.gen + 1);
    cRetired_->add();
}

bool
TenantTable::admit(TenantId id)
{
    if (!known(id)) {
        if (!cfg_.autoRegister)
            return false; // nothing to count against: unknown VF
        // Ids arrive in arbitrary order; materialize the gap so the
        // id space stays dense (dispatcher class queues index by id).
        while (vfs_.size() <= id) {
            add(cfg_.defaults);
            cAutoRegistered_->add();
        }
    }
    Vf &v = vf(id);
    if (!v.active) {
        v.cRejected->add();
        return false;
    }
    if (v.quota.maxInFlight != 0 && v.inFlight >= v.quota.maxInFlight) {
        v.cRejected->add();
        return false;
    }
    ++v.inFlight;
    v.cAdmitted->add();
    v.hInflight->record(v.inFlight);
    return true;
}

void
TenantTable::completed(TenantId id, sim::Tick latency)
{
    Vf &v = vf(id);
    LYNX_ASSERT(v.inFlight > 0, "tenant completion without admission");
    --v.inFlight;
    v.hLatency->record(latency);
    fireCapacityFreed();
}

bool
TenantTable::finish(TenantId id, std::uint16_t gen, sim::Tick latency)
{
    Vf &v = vf(id);
    if (v.gen == gen) {
        completed(id, latency);
        return true;
    }
    // Retired generation: the in-flight slot drains here, counted —
    // the response itself must never reach the wire.
    LYNX_ASSERT(v.inFlight > 0, "stale drain without admission");
    --v.inFlight;
    v.cStaleDropped->add();
    fireCapacityFreed();
    return false;
}

void
TenantTable::abandoned(TenantId id)
{
    Vf &v = vf(id);
    LYNX_ASSERT(v.inFlight > 0, "tenant abandon without admission");
    --v.inFlight;
    v.cLost->add();
    fireCapacityFreed();
}

void
TenantTable::noteTagAlloc(TenantId id)
{
    ++vf(id).tagsHeld;
}

void
TenantTable::noteTagRelease(TenantId id)
{
    Vf &v = vf(id);
    LYNX_ASSERT(v.tagsHeld > 0, "tenant tag release without alloc");
    --v.tagsHeld;
    fireCapacityFreed();
}

void
TenantTable::fireCapacityFreed()
{
    for (auto &fn : hooks_)
        fn();
}

} // namespace lynx::core
