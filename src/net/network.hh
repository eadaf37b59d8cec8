/**
 * @file
 * The switched network connecting all nodes.
 *
 * Star topology through one switch (the paper's testbed: a Mellanox
 * SN2100 connecting 6 machines). Message flight time is
 *
 *     tx NIC hw + serialization(src link) + switch latency +
 *     propagation + rx NIC hw
 *
 * Delivery preserves per-(src,dst) FIFO order because latency is
 * deterministic for a given size and events tie-break FIFO.
 */

#ifndef LYNX_NET_NETWORK_HH
#define LYNX_NET_NETWORK_HH

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "congestion.hh"
#include "message.hh"
#include "nic.hh"
#include "sim/fault.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace lynx::net {

/** Fabric-wide timing parameters. */
struct NetworkConfig
{
    /** Store-and-forward latency of the switch. */
    sim::Tick switchLatency = sim::nanoseconds(600);

    /** Cable propagation (total, both hops). */
    sim::Tick propagation = sim::nanoseconds(400);

    /** Probability of dropping a message in the fabric (failure
     *  injection; 0 in the calibrated experiments — the testbed is a
     *  single lossless switch). */
    double lossRate = 0.0;

    /** Seed of the loss process (deterministic replay). */
    std::uint64_t lossSeed = 0x10ef;

    /** Congestion plane (egress queues / ECN / DCQCN / PFC). Default
     *  constructed = disabled = the exact seed routing path, with no
     *  per-port state and no Rng draws (bit-identical timing). */
    CongestionConfig congestion;
};

/** The data-center network: a set of NICs behind one switch. */
class Network
{
  public:
    explicit Network(sim::Simulator &sim, NetworkConfig cfg = {})
        : sim_(sim), cfg_(cfg), lossRng_(cfg.lossSeed),
          cRouted_(&stats_.counter("routed")),
          cDroppedInFabric_(&stats_.counter("dropped_in_fabric")),
          cDroppedByFault_(&stats_.counter("dropped_by_fault")),
          cCorruptedInFabric_(&stats_.counter("corrupted_in_fabric")),
          cEcnMarked_(&ecnStats_.counter("marked")),
          cEgressDrops_(&ecnStats_.counter("egress_drops")),
          cCnpSent_(&ecnStats_.counter("cnp_sent")),
          hQueueBytes_(&ecnStats_.histogram("queue_bytes"))
    {
        sim_.metrics().add("net.fabric", stats_);
        sim_.metrics().add("net.ecn", ecnStats_);
    }

    ~Network()
    {
        sim_.metrics().remove(stats_);
        sim_.metrics().remove(ecnStats_);
    }

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /**
     * Attach a new node to the fabric.
     * @return its NIC; the node id is the attach order.
     */
    Nic &
    addNic(const std::string &name, NicConfig cfg = {})
    {
        auto node = static_cast<std::uint32_t>(nics_.size());
        nics_.push_back(std::make_unique<Nic>(sim_, *this, name, node, cfg));
        return *nics_.back();
    }

    /** @return the NIC of @p node. */
    Nic &
    nicOf(std::uint32_t node)
    {
        LYNX_ASSERT(node < nics_.size(), "unknown node ", node);
        return *nics_[node];
    }

    /** @return number of attached nodes. */
    std::size_t nodeCount() const { return nics_.size(); }

    /**
     * Route @p m from the wire to its destination NIC. Called by
     * Nic::send after serialization; adds switch + propagation +
     * receive-side latencies.
     */
    void
    route(Message m)
    {
        LYNX_DEBUG_ASSERT(m.dst.node < nics_.size(),
                          "message to unknown node ", m.dst.node);
        if (cfg_.lossRate > 0.0 && lossRng_.chance(cfg_.lossRate)) {
            cDroppedInFabric_->add();
            return;
        }
        Nic &dst = *nics_[m.dst.node];
        sim::Tick flight = cfg_.switchLatency + cfg_.propagation +
                           dst.config().hwLatency;
        if (faults_ && faults_->enabled()) {
            auto v = faults_->judge(m.src.node, m.dst.node, sim_.now());
            if (v.drop) {
                cDroppedByFault_->add();
                return;
            }
            if (v.corrupt) {
                faults_->corruptInPlace(m.payload);
                m.corrupted = true;
                cCorruptedInFabric_->add();
            }
            // A delayed frame lets later ones overtake it: the delay
            // fault doubles as the reordering fault.
            flight += v.delay;
        }
        if (cfg_.congestion.enabled) {
            // Store-and-forward through a finite egress queue: the
            // frame reaches the port after the switch latency, queues
            // behind earlier traffic to the same destination, may be
            // ECN-marked in the RED band, and tail-drops past the
            // queue capacity. Everything up to here (loss + fault
            // draws) is unchanged from the seed path.
            CongestionPoint &port = egressPort(m.dst.node);
            sim::Tick arrival = sim_.now() + cfg_.switchLatency;
            CongestionPoint::Verdict v =
                port.admit(m.size(), arrival, /*lossless=*/false);
            hQueueBytes_->record(v.depthBytes);
            if (v.dropped) {
                cEgressDrops_->add();
                return;
            }
            if (v.marked) {
                m.ce = true;
                cEcnMarked_->add();
            }
            flight = v.start + port.serialization(m.size()) +
                     cfg_.propagation + dst.config().hwLatency +
                     (flight - (cfg_.switchLatency + cfg_.propagation +
                                dst.config().hwLatency)) -
                     sim_.now();
        }
        cRouted_->add();
        sim_.scheduleIn(flight, [&dst, m = std::move(m)]() mutable {
            dst.deliver(std::move(m));
        });
    }

    /**
     * Control-path CNP from @p congestedNode (the receiver that saw a
     * CE mark) back to @p flowSrc: rides the highest priority, so it
     * bypasses the egress queues and arrives after the fixed
     * `cnpDelay` regardless of data-plane congestion.
     */
    void
    sendCnp(std::uint32_t congestedNode, std::uint32_t flowSrc)
    {
        LYNX_DEBUG_ASSERT(flowSrc < nics_.size(),
                          "CNP to unknown node ", flowSrc);
        cCnpSent_->add();
        Nic &src = *nics_[flowSrc];
        sim_.scheduleIn(cfg_.congestion.cnpDelay,
                        [&src, congestedNode] {
                            src.handleCnp(congestedNode);
                        });
    }

    /** @return the congestion plane's configuration. */
    const CongestionConfig &congestionConfig() const
    {
        return cfg_.congestion;
    }

    /**
     * The egress port feeding @p node, created on first use (never
     * while the plane is disabled). Port rate = the destination
     * NIC's link rate unless `portGbps` overrides it; RDMA flows can
     * bind the same port (rdma::QpCongestionBinding) so datagram and
     * RDMA traffic contend for one bottleneck.
     */
    CongestionPoint &
    egressPort(std::uint32_t node)
    {
        LYNX_ASSERT(cfg_.congestion.enabled,
                    "egress ports exist only with congestion enabled");
        LYNX_ASSERT(node < nics_.size(), "unknown node ", node);
        if (ports_.size() < nics_.size())
            ports_.resize(nics_.size());
        if (!ports_[node])
            makePort(node);
        return *ports_[node];
    }

    /** Attach (or detach with nullptr) a fault-injection plan. The
     *  plan is consulted per routed message; an all-zero plan is
     *  short-circuited, leaving timing bit-identical. Not owned. */
    void setFaultPlan(sim::FaultPlan *plan) { faults_ = plan; }

    /** @return the attached fault plan (nullptr when none). */
    sim::FaultPlan *faultPlan() { return faults_; }

    /** Fabric-wide statistics. */
    sim::StatSet &stats() { return stats_; }

    /** Congestion-plane statistics (`net.ecn.*`: marked,
     *  egress_drops, cnp_sent, queue_bytes). All zero while the
     *  plane is disabled. */
    sim::StatSet &ecnStats() { return ecnStats_; }

    sim::Simulator &sim() { return sim_; }

  private:
    /** Create the egress port feeding @p node (ports_ presized). */
    void
    makePort(std::uint32_t node)
    {
        const CongestionConfig &cc = cfg_.congestion;
        CongestionPoint::Config pc;
        pc.gbps = cc.portGbps > 0.0 ? cc.portGbps
                                    : nics_[node]->config().gbps;
        pc.queueBytes = cc.egressQueueBytes;
        if (cc.ecnEnabled) {
            pc.kminBytes = cc.ecnKminBytes;
            pc.kmaxBytes = cc.ecnKmaxBytes;
            pc.pmax = cc.ecnPmax;
        } else {
            // Marking band pushed past any reachable depth: the
            // port still queues and tail-drops, but never marks
            // (and never draws randomness) — the uncontrolled
            // baseline of the incast bench.
            pc.kminBytes = pc.kmaxBytes =
                std::numeric_limits<std::uint64_t>::max();
            pc.pmax = 0.0;
        }
        pc.seed = cc.ecnSeed + node * 0x9e3779b9ull;
        ports_[node] = std::make_unique<CongestionPoint>(pc);
    }

    sim::Simulator &sim_;
    NetworkConfig cfg_;
    sim::FaultPlan *faults_ = nullptr;
    sim::Rng lossRng_;
    std::vector<std::unique_ptr<Nic>> nics_;

    /** Per-destination egress ports, lazily created (only while the
     *  congestion plane is enabled; empty otherwise). */
    std::vector<std::unique_ptr<CongestionPoint>> ports_;

    sim::StatSet stats_;
    sim::StatSet ecnStats_;

    /** Per-message counters, resolved once at construction. */
    sim::Counter *cRouted_;
    sim::Counter *cDroppedInFabric_;
    sim::Counter *cDroppedByFault_;
    sim::Counter *cCorruptedInFabric_;
    sim::Counter *cEcnMarked_;
    sim::Counter *cEgressDrops_;
    sim::Counter *cCnpSent_;
    sim::Histogram *hQueueBytes_;
};

} // namespace lynx::net

#endif // LYNX_NET_NETWORK_HH
