/**
 * @file
 * Unified metrics registry (gem5's stats registry, in spirit).
 *
 * Every component already owns a StatSet; before this layer each one
 * was an ad-hoc bag its owner had to know about and print by hand.
 * The registry gives them hierarchical dotted names — "net.nic.cli0",
 * "rdma.qp.mq0", "lynx.mq.svc#0", "gio.svc#0", "lynx.fwd.echo",
 * "workload.loadgen" — so one dump()/json() call snapshots the whole
 * deployment.
 *
 * Components register in their constructor through the simulator they
 * already hold (sim.metrics().add(...)) and deregister in their
 * destructor; the registry stores non-owning pointers and must never
 * outlive a registrant, which the usual declaration order (Simulator
 * first) guarantees. Registration is construction-time only, so the
 * registry costs nothing on hot paths.
 */

#ifndef LYNX_SIM_METRICS_HH
#define LYNX_SIM_METRICS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats.hh"

namespace lynx::sim {

/** Hierarchically-named collection of component StatSets. */
class MetricsRegistry
{
  public:
    /**
     * Register @p stats under dotted @p path. Paths are unique: a
     * duplicate gets "#2", "#3", ... appended. @return the final path.
     */
    std::string add(const std::string &path, const StatSet &stats);

    /** Remove a registration (match by StatSet address). */
    void remove(const StatSet &stats);

    /** @return registered (path, StatSet) entries, sorted by path. */
    std::vector<std::pair<std::string, const StatSet *>> entries() const;

    /** @return number of registered StatSets. */
    std::size_t size() const { return entries_.size(); }

    /** @return sum of counter @p name over entries whose path starts
     *  with @p prefix. */
    std::uint64_t aggregateCounter(const std::string &prefix,
                                   const std::string &name) const;

    /** Human-readable hierarchical dump of every registered set. */
    void dump(std::ostream &os) const;

    /** JSON snapshot: {"path":{"counters":{...},"histograms":{...}}}. */
    void json(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string path;
        const StatSet *stats;
    };

    std::vector<Entry> entries_;
};

} // namespace lynx::sim

#endif // LYNX_SIM_METRICS_HH
