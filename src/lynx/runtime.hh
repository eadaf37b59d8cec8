/**
 * @file
 * The Lynx runtime: the generic, application-agnostic network server
 * that runs on the SNIC (or, source-compatibly, on host CPU cores —
 * paper §5.1: "the Bluefield version of Lynx is source-compatible to
 * run on X86").
 *
 * A Runtime owns, per paper Fig. 4:
 *  - the Network Server: listener tasks that perform transport
 *    processing on the SNIC cores and feed the Message Dispatcher;
 *  - one Dispatcher per service (listening port);
 *  - one Forwarder + RC QueuePair per managed accelerator (local or
 *    remote — only the RdmaPathModel differs, §5.5);
 *  - backend listeners that steer responses of client mqueues back
 *    into their RX rings.
 *
 * The host CPU's only role is setup: scenario code creates the
 * runtime, registers accelerators and services, hands the resulting
 * mqueue layouts to accelerator-side code (gio), and calls start().
 * From then on no host core is involved ("remains idle from that
 * point", §4.3).
 *
 * Lifetime: the Runtime installs watchpoints on the accelerators'
 * DeviceMemory regions, so it must be destroyed *before* them —
 * declare accelerators (and their memories) before the Runtime.
 */

#ifndef LYNX_LYNX_RUNTIME_HH
#define LYNX_LYNX_RUNTIME_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lynx/dispatcher.hh"
#include "lynx/failover.hh"
#include "lynx/forwarder.hh"
#include "lynx/gio.hh"
#include "lynx/snic_mqueue.hh"
#include "lynx/tenant.hh"
#include "net/network.hh"
#include "net/nic.hh"
#include "net/stack.hh"
#include "rdma/qp.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"

namespace lynx::core {

class Runtime;

/** One managed accelerator: its memory, QP, forwarders, allocator.
 *
 * All the accelerator's mqueues share one RC QP (§5.1), but their
 * egress is pumped by several forwarding loops so that a single
 * accelerator with many mqueues exploits every SNIC worker core.
 */
class AccelHandle
{
  public:
    AccelHandle(sim::Simulator &sim, std::string name,
                pcie::DeviceMemory &mem, rdma::RdmaPathModel path,
                const std::vector<sim::Core *> &fwdCores, net::Nic &nic,
                net::StackProfile stack, net::StackProfile backendStack,
                TenantTable &tenants, ForwarderConfig fwdCfg)
        : name_(std::move(name)), mem_(mem),
          qp_(sim, name_ + ".qp", mem, path)
    {
        LYNX_ASSERT(!fwdCores.empty(), name_, ": needs forwarder cores");
        for (std::size_t i = 0; i < fwdCores.size(); ++i) {
            forwarders_.push_back(std::make_unique<Forwarder>(
                sim, name_ + ".fwd" + std::to_string(i), *fwdCores[i],
                nic, stack, backendStack, tenants, fwdCfg));
        }
    }

    const std::string &name() const { return name_; }
    pcie::DeviceMemory &memory() { return mem_; }
    rdma::QueuePair &qp() { return qp_; }

    /** Assign @p mq to the next forwarding loop round-robin. */
    void
    addQueue(SnicMqueue *mq, std::uint16_t servicePort,
             std::optional<BackendRoute> route = std::nullopt)
    {
        forwarders_[fwdRr_++ % forwarders_.size()]->addQueue(
            mq, servicePort, std::move(route));
    }

    /** Spawn every forwarding loop. */
    void
    startForwarders()
    {
        for (auto &f : forwarders_)
            f->start();
    }

    /** Carve an mqueue region out of the accelerator's memory. */
    MqueueLayout
    allocQueue(std::uint32_t slots, std::uint32_t slotBytes)
    {
        MqueueLayout l;
        l.base = allocOff_;
        l.slots = slots;
        l.slotBytes = slotBytes;
        allocOff_ += (l.totalBytes() + 63) / 64 * 64;
        LYNX_ASSERT(allocOff_ <= mem_.size(), name_,
                    ": out of device memory for mqueues");
        return l;
    }

  private:
    std::string name_;
    pcie::DeviceMemory &mem_;
    rdma::QueuePair qp_;
    std::vector<std::unique_ptr<Forwarder>> forwarders_;
    std::size_t fwdRr_ = 0;
    std::uint64_t allocOff_ = 0;
};

/** Parameters of one network-facing service. */
struct ServiceConfig
{
    std::string name = "svc";
    std::uint16_t port = 7000;
    net::Protocol proto = net::Protocol::Udp;

    /** Server mqueues created on each accelerator ("Each accelerator
     *  may have more than one server mqueue associated with the same
     *  port, e.g., to allow higher parallelism", §4.3). */
    int queuesPerAccel = 1;

    std::uint32_t ringSlots = 16;
    std::uint32_t slotBytes = 2048;
    DispatchPolicy policy = DispatchPolicy::RoundRobin;

    /** Restrict the service to these accelerators (empty = all),
     *  e.g. to give tenants disjoint accelerators (§4.5). */
    std::vector<AccelHandle *> accels;
};

/** One listening port with its dispatcher and mqueues. */
class Service
{
  public:
    Service(ServiceConfig cfg, net::Endpoint &ep, TenantTable &tenants,
            DispatcherConfig dcfg)
        : cfg_(cfg), ep_(ep),
          dispatcher_(cfg.name + ".dispatch", cfg.policy, tenants, dcfg)
    {}

    const ServiceConfig &config() const { return cfg_; }
    Dispatcher &dispatcher() { return dispatcher_; }
    net::Endpoint &endpoint() { return ep_; }

    /** @return layouts of this service's mqueues on @p accel (for
     *  handing to accelerator-side gio code). */
    const std::vector<MqueueLayout> &
    layoutsFor(const AccelHandle &accel) const
    {
        for (const auto &pa : perAccel_) {
            if (pa.accel == &accel)
                return pa.layouts;
        }
        LYNX_PANIC("service ", cfg_.name, " has no queues on ",
                   accel.name());
    }

  private:
    friend class Runtime;

    struct PerAccel
    {
        AccelHandle *accel;
        std::vector<MqueueLayout> layouts;
    };

    ServiceConfig cfg_;
    net::Endpoint &ep_;
    Dispatcher dispatcher_;
    std::vector<PerAccel> perAccel_;
};

/** Handle to a client mqueue (accelerator-to-backend channel). */
struct ClientQueueRef
{
    AccelHandle *accel = nullptr;
    MqueueLayout layout;
    SnicMqueue *mq = nullptr;
};

/** Runtime-wide configuration. */
struct RuntimeConfig
{
    /** Worker cores of the platform Lynx runs on (7 ARM cores on
     *  Bluefield; 1 or 6 Xeon cores for the host variants). */
    std::vector<sim::Core *> cores;

    /** The frontend NIC (the SNIC's own network identity). Its
     *  network's congestion plane is the Runtime's congestion
     *  config. */
    net::Nic *nic = nullptr;

    /** Transport stack cost profile of this platform. */
    net::StackProfile stack;

    /** Cost profile of persistent backend connections (client
     *  mqueues); defaults to `stack` when unset. */
    std::optional<net::StackProfile> backendStack;

    /** Forwarding loops per accelerator (0 = one per worker core). */
    int forwardersPerAccel = 0;

    /** Dispatcher CPU per message. */
    sim::Tick dispatchCpu = sim::nanoseconds(500);

    /** How long a listener lingers before flushing a partial batch
     *  once the ingress backlog is empty — the window in which
     *  concurrent arrivals can join the same coalesced write. Only
     *  consulted when `mq.maxBatch` > 1 (the dispatcher stages that
     *  many messages per mqueue); bounds the extra latency batching
     *  can ever add to a message. */
    sim::Tick dispatchFlushLinger = sim::microseconds(2);

    /** Forwarding loop knobs. */
    ForwarderConfig forwarder;

    /** mqueue write behaviour (coalescing / §5.1 barrier). Leave
     *  `mq.pfc` unset: ring PFC comes from the congestion plane of
     *  the network `nic` is attached to (see Runtime()). */
    SnicMqueueConfig mq;

    /** Accelerator-side gio timing used by makeAccelQueues(). */
    GioConfig gio;

    /** Listener tasks per service (0 = one per worker core). */
    int listenersPerService = 0;

    /** Health-monitor knobs. A retry policy on `mq.retry` (e.g.
     *  calibration::rdmaSwRetryPolicy()) is the one source of
     *  failover: it detects dead transports, makes every mqueue
     *  retain in-flight payloads and drop stale-tag responses, and
     *  makes start() run a HealthMonitor per service. No policy
     *  (default) = seed behaviour, bit-identical. */
    FailoverConfig failover;

    /** Multi-tenant virtualization of the dispatch plane
     *  (lynx/tenant.hh): registration policy and drain hysteresis of
     *  the Runtime's TenantTable, which every dispatcher, mqueue and
     *  forwarder shares and in which untenanted traffic is the
     *  default VF. Traffic of the default VF alone is seed
     *  behaviour, bit-identical. */
    TenantConfig tenancy;

    /** RSS indirection-table shape shared by every service running
     *  DispatchPolicy::Rss (net/steering.hh). Inert — a pure config
     *  copy — for other policies. */
    net::steer::RssConfig rss;

    /** Dispatch-plane admission control for untenanted traffic:
     *  when enabled, arrivals beyond the ring-tag occupancy
     *  threshold are shed with counted rejects
     *  (`admission.<svc>.shed_ring_full`) instead of deepening the
     *  rings until PFC or overflow bites. Off (default) = seed
     *  behaviour, bit-identical. */
    AdmissionConfig admission;
};

/** The SNIC-resident Lynx runtime. */
class Runtime
{
  public:
    Runtime(sim::Simulator &sim, RuntimeConfig cfg);
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Manage an accelerator whose BAR-exposed memory is @p mem,
     * reachable over @p path (local PCIe p2p, or remote via
     * RdmaPathModel::viaNetwork — "all what is required ... is to
     * change the accelerator's host IP", §5.5).
     * @pre no services have been added yet.
     */
    AccelHandle &addAccelerator(const std::string &name,
                                pcie::DeviceMemory &mem,
                                rdma::RdmaPathModel path);

    /** Create a service and its mqueues on every accelerator. */
    Service &addService(ServiceConfig cfg);

    /**
     * Create a client mqueue on @p accel whose messages go to
     * @p backend ("the destination address is assigned when the
     * server is initialized", §4.3).
     */
    ClientQueueRef addClientQueue(AccelHandle &accel,
                                  const std::string &name,
                                  net::Address backend,
                                  net::Protocol proto,
                                  std::uint32_t ringSlots = 16,
                                  std::uint32_t slotBytes = 2048);

    /** Spawn all listener and forwarder tasks. */
    void start();

    /** Build accelerator-side gio views of @p svc's queues on
     *  @p accel (the "pointers passed to the accelerator", §4.3). */
    std::vector<std::unique_ptr<AccelQueue>>
    makeAccelQueues(const Service &svc, const AccelHandle &accel);

    /** Build the accelerator-side gio view of a client queue. */
    std::unique_ptr<AccelQueue> makeAccelQueue(const ClientQueueRef &ref);

    /** @return the managed accelerators. */
    std::vector<std::unique_ptr<AccelHandle>> &accelerators()
    {
        return accels_;
    }

    /** @return every SNIC-side mqueue (benchmarks aggregate their
     *  per-queue RDMA op counters from here). */
    const std::vector<std::unique_ptr<SnicMqueue>> &mqueues() const
    {
        return mqueues_;
    }

    /** @return the per-service health monitors (empty unless
     *  `mq.retry` has a policy; populated by start()). */
    const std::vector<std::unique_ptr<HealthMonitor>> &monitors() const
    {
        return monitors_;
    }

    /** @return the runtime's NIC. */
    net::Nic &nic() { return *cfg_.nic; }

    /** @return the tenant table. Scenario code registers/retires
     *  tenants through it. */
    TenantTable &tenants() { return tenants_; }

    sim::StatSet &stats() { return stats_; }

  private:
    /** Pick the next worker core round-robin. */
    sim::Core &nextCore() { return *cfg_.cores[coreRr_++ % cfg_.cores.size()]; }

    /** Listener task body: transport processing + dispatch. */
    sim::Task listenLoop(Service &svc, sim::Core &core);

    /** Backend-response listener of one client queue. */
    sim::Task backendLoop(ClientQueueRef ref, net::Endpoint &ep,
                          net::Protocol proto, sim::Core &core);

    /** Event-driven drain of one service's tenant class queues
     *  (spawned for every service): parks on @p gate (opened by the
     *  dispatcher's backlog hook and the table's capacity-freed
     *  hooks) — never polls, so an idle world schedules no events
     *  and sim.run() still terminates. */
    sim::Task tenantDrainLoop(Service &svc, sim::Core &core,
                              sim::Gate &gate);

    sim::Simulator &sim_;
    RuntimeConfig cfg_;
    std::size_t coreRr_ = 0;
    std::uint16_t nextEphemeralPort_ = 20000;
    bool started_ = false;

    /** Declared before everything that holds a reference to it. */
    TenantTable tenants_;
    std::vector<std::unique_ptr<AccelHandle>> accels_;
    std::vector<std::unique_ptr<Service>> services_;
    std::vector<std::unique_ptr<SnicMqueue>> mqueues_;
    std::vector<std::unique_ptr<HealthMonitor>> monitors_;
    std::vector<std::unique_ptr<sim::Gate>> tenantGates_;

    struct BackendBinding
    {
        ClientQueueRef ref;
        net::Endpoint *ep;
        net::Protocol proto;
    };
    std::vector<BackendBinding> backendBindings_;

    sim::StatSet stats_;
};

} // namespace lynx::core

#endif // LYNX_LYNX_RUNTIME_HH
