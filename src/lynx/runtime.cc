#include "runtime.hh"

#include <algorithm>

#include "sim/span.hh"
#include "sim/trace.hh"
#include "workload/loadgen.hh"

namespace lynx::core {

Runtime::Runtime(sim::Simulator &sim, RuntimeConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), tenants_(sim, cfg_.tenancy)
{
    LYNX_FATAL_IF(cfg_.cores.empty(), "Lynx runtime needs worker cores");
    LYNX_FATAL_IF(!cfg_.nic, "Lynx runtime needs a NIC");
    // Ring PFC comes from the congestion plane of the network the NIC
    // is attached to: a full RX ring pauses its pusher (backpressure
    // into the listeners/backend loops) instead of overflowing.
    LYNX_ASSERT(!cfg_.mq.pfc.enabled,
                "ring PFC is configured on the network, not on mq.pfc");
    const net::CongestionConfig &cc =
        cfg_.nic->network().congestionConfig();
    if (cc.enabled && cc.pfc.enabled)
        cfg_.mq.pfc = cc.pfc;
    // One PF-side tenant table, shared by every dispatcher (admission
    // + WRR classes), mqueue (ring-tag accounting) and forwarder
    // (generation check, per-tenant latency).
    cfg_.mq.tenants = &tenants_;
    sim_.metrics().add("lynx.runtime", stats_);
}

Runtime::~Runtime()
{
    sim_.metrics().remove(stats_);
    for (auto &svc : services_) {
        sim_.metrics().remove(svc->dispatcher().stats());
        sim_.metrics().remove(svc->dispatcher().steerStats());
        sim_.metrics().remove(svc->dispatcher().admissionStats());
    }
}

AccelHandle &
Runtime::addAccelerator(const std::string &name, pcie::DeviceMemory &mem,
                        rdma::RdmaPathModel path)
{
    LYNX_ASSERT(services_.empty(),
                "register all accelerators before adding services");
    std::size_t nfwd = cfg_.forwardersPerAccel
                           ? static_cast<std::size_t>(
                                 cfg_.forwardersPerAccel)
                           : cfg_.cores.size();
    std::vector<sim::Core *> fwdCores;
    for (std::size_t i = 0; i < nfwd; ++i)
        fwdCores.push_back(&nextCore());
    // Rotate per accelerator: otherwise every accelerator's first
    // mqueue lands on the same worker core (single-queue-per-GPU
    // deployments would bottleneck one core).
    std::rotate(fwdCores.begin(),
                fwdCores.begin() +
                    static_cast<long>(accels_.size() % nfwd),
                fwdCores.end());
    accels_.push_back(std::make_unique<AccelHandle>(
        sim_, name, mem, path, fwdCores, *cfg_.nic, cfg_.stack,
        cfg_.backendStack.value_or(cfg_.stack), tenants_,
        cfg_.forwarder));
    return *accels_.back();
}

Service &
Runtime::addService(ServiceConfig scfg)
{
    LYNX_ASSERT(!accels_.empty(), "no accelerators registered");
    net::Endpoint &ep = cfg_.nic->bind(scfg.proto, scfg.port);
    services_.push_back(std::make_unique<Service>(
        scfg, ep, tenants_,
        DispatcherConfig{cfg_.dispatchCpu, cfg_.rss, cfg_.admission}));
    Service &svc = *services_.back();
    // The Dispatcher itself carries no Simulator reference; its owner
    // registers the stats on its behalf (removed in ~Runtime).
    sim_.metrics().add("lynx.dispatch." + scfg.name,
                       svc.dispatcher().stats());
    sim_.metrics().add("steer." + scfg.name,
                       svc.dispatcher().steerStats());
    sim_.metrics().add("admission." + scfg.name,
                       svc.dispatcher().admissionStats());

    for (auto &accel : accels_) {
        if (!scfg.accels.empty() &&
            std::find(scfg.accels.begin(), scfg.accels.end(),
                      accel.get()) == scfg.accels.end()) {
            continue;
        }
        Service::PerAccel pa;
        pa.accel = accel.get();
        for (int q = 0; q < scfg.queuesPerAccel; ++q) {
            MqueueLayout layout =
                accel->allocQueue(scfg.ringSlots, scfg.slotBytes);
            pa.layouts.push_back(layout);
            mqueues_.push_back(std::make_unique<SnicMqueue>(
                sim_,
                scfg.name + "." + accel->name() + ".mq" +
                    std::to_string(q),
                accel->qp(), layout, MqueueKind::Server, cfg_.mq));
            SnicMqueue *mq = mqueues_.back().get();
            svc.dispatcher().addQueue(mq);
            accel->addQueue(mq, scfg.port);
        }
        svc.perAccel_.push_back(std::move(pa));
    }
    return svc;
}

ClientQueueRef
Runtime::addClientQueue(AccelHandle &accel, const std::string &name,
                        net::Address backend, net::Protocol proto,
                        std::uint32_t ringSlots, std::uint32_t slotBytes)
{
    MqueueLayout layout = accel.allocQueue(ringSlots, slotBytes);
    mqueues_.push_back(std::make_unique<SnicMqueue>(
        sim_, name, accel.qp(), layout, MqueueKind::Client, cfg_.mq));
    SnicMqueue *mq = mqueues_.back().get();

    BackendRoute route;
    route.dst = backend;
    route.proto = proto;
    route.srcPort = nextEphemeralPort_++;
    accel.addQueue(mq, 0, route);

    net::Endpoint &ep = cfg_.nic->bind(proto, route.srcPort);
    ClientQueueRef ref{&accel, layout, mq};
    backendBindings_.push_back(BackendBinding{ref, &ep, proto});
    return ref;
}

void
Runtime::start()
{
    LYNX_ASSERT(!started_, "runtime started twice");
    started_ = true;

    int listeners = cfg_.listenersPerService
                        ? cfg_.listenersPerService
                        : static_cast<int>(cfg_.cores.size());
    for (auto &svc : services_) {
        for (int i = 0; i < listeners; ++i)
            sim::spawn(sim_, listenLoop(*svc, nextCore()));
    }
    for (auto &b : backendBindings_)
        sim::spawn(sim_, backendLoop(b.ref, *b.ep, b.proto, nextCore()));
    for (auto &accel : accels_)
        accel->startForwarders();
    if (cfg_.mq.retry.enabled()) {
        for (auto &svc : services_) {
            monitors_.push_back(std::make_unique<HealthMonitor>(
                sim_, svc->config().name + ".monitor",
                svc->dispatcher(), nextCore(), cfg_.failover));
            monitors_.back()->start();
        }
    }
    // Drain tasks take their cores last and park without an event.
    for (auto &svc : services_) {
        tenantGates_.push_back(std::make_unique<sim::Gate>(sim_));
        sim::Gate *gate = tenantGates_.back().get();
        Dispatcher *d = &svc->dispatcher();
        // Deferred work reopens the gate from two directions: the
        // dispatcher left a backlog (couldn't place it), or table
        // capacity freed (a completion/abandon/tag release) while a
        // backlog exists.
        d->setTenantBacklogHook([gate] { gate->open(); });
        tenants_.onCapacityFreed([d, gate] {
            if (d->hasTenantPending())
                gate->open();
        });
        sim::spawn(sim_, tenantDrainLoop(*svc, nextCore(), *gate));
    }
}

sim::Task
Runtime::tenantDrainLoop(Service &svc, sim::Core &core,
                         sim::Gate &gate)
{
    for (;;) {
        co_await gate.wait();
        gate.close();
        // Small hysteresis: batch several completions (or a burst of
        // deferred arrivals) into one pump sweep.
        if (cfg_.tenancy.drainDelay > 0)
            co_await sim::sleep(cfg_.tenancy.drainDelay);
        co_await svc.dispatcher().pumpTenants(core);
        // What the pump staged on a batching queue goes out now: no
        // listener flush point follows a drain.
        if (svc.dispatcher().hasStaged())
            co_await svc.dispatcher().flush(core);
        // Whatever is still deferred waits for the next capacity
        // hook; parking on the closed gate keeps the idle world
        // event-free (sim.run() terminates).
    }
}

sim::Task
Runtime::listenLoop(Service &svc, sim::Core &core)
{
    net::Protocol proto = svc.config().proto;
    sim::Counter &rxMsgs = stats_.counter("rx_msgs");
    for (;;) {
        net::Message msg = co_await svc.endpoint().recv();
        LYNX_TRACE(sim_, "lynx", svc.config().name, ": rx from ",
                   msg.src, " (", msg.size(), " B)");
        if (sim::SpanCollector *spans = sim_.spans())
            spans->stamp(msg.traceId, sim::Stage::SnicIngress,
                         sim_.now());
        rxMsgs.add();
        co_await core.exec(
            cfg_.stack.cost(proto, net::Dir::Recv, msg.size()));
        co_await svc.dispatcher().dispatch(core, std::move(msg));
        // Batching flush point: once the ingress backlog drains,
        // push the staged batches out. When a staged batch targets a
        // ring that is already backlogged, linger first — the
        // accelerator would not reach the message immediately anyway,
        // so waiting for company costs (nearly) nothing and lets
        // in-flight arrivals join the same coalesced write. An empty
        // ring flushes immediately: an isolated message on an idle
        // system is never delayed.
        if (svc.dispatcher().hasStaged() &&
            svc.endpoint().backlog() == 0) {
            if (cfg_.dispatchFlushLinger > 0 &&
                svc.dispatcher().stagedBehindBusyRing())
                co_await sim::sleep(cfg_.dispatchFlushLinger);
            if (svc.dispatcher().hasStaged() &&
                svc.endpoint().backlog() == 0) {
                co_await svc.dispatcher().flush(core);
            }
        }
    }
}

sim::Task
Runtime::backendLoop(ClientQueueRef ref, net::Endpoint &ep,
                     net::Protocol proto, sim::Core &core)
{
    // Push into the client mqueue's RX ring; responses must not be
    // dropped (TCP semantics), so retry while the accelerator drains.
    // Each failed attempt is an mqueue `overflow` plus a retry here
    // (with PFC enabled rxPush parks inside the mqueue instead, so
    // this loop rarely spins).
    sim::Counter &pushRetries = stats_.counter("backend_push_retries");
    auto push = [&](std::span<const std::uint8_t> payload,
                    std::uint32_t tag,
                    std::uint32_t err) -> sim::Co<void> {
        for (;;) {
            bool ok = co_await ref.mq->rxPush(core, payload, tag, err);
            if (ok)
                co_return;
            pushRetries.add();
            co_await sim::sleep(sim::microseconds(1));
        }
    };

    sim::Counter &timeouts = stats_.counter("backend_timeouts");
    sim::Counter &responses = stats_.counter("backend_responses");

    for (;;) {
        // Wait until at least one backend request is in flight.
        while (!ref.mq->hasPending()) {
            ref.mq->pendingActivity().close();
            co_await ref.mq->pendingActivity().wait();
        }
        // Wait for the response, bounded by the oldest deadline; an
        // expiry becomes an empty message with a non-zero error
        // status — the §5.1 metadata error channel.
        sim::Tick deadline = ref.mq->oldestPending()->deadline;
        sim::Tick wait = deadline > sim_.now() ? deadline - sim_.now()
                                               : 1;
        auto msg = co_await workload::recvTimeout(sim_, ep, wait);
        if (!msg) {
            auto expired = ref.mq->popPending();
            timeouts.add();
            co_await push({}, expired->tag, /*err=*/1);
            continue;
        }
        responses.add();
        co_await core.exec(cfg_.backendStack.value_or(cfg_.stack)
                               .cost(proto, net::Dir::Recv,
                                     msg->size()));
        auto pending = ref.mq->popPending();
        if (!pending) {
            sim::warn(ref.mq->name(),
                      ": backend response with no pending request");
            continue;
        }
        co_await push(msg->payload, pending->tag, /*err=*/0);
    }
}

std::vector<std::unique_ptr<AccelQueue>>
Runtime::makeAccelQueues(const Service &svc, const AccelHandle &accel)
{
    std::vector<std::unique_ptr<AccelQueue>> out;
    const auto &layouts = svc.layoutsFor(accel);
    for (std::size_t i = 0; i < layouts.size(); ++i) {
        out.push_back(std::make_unique<AccelQueue>(
            sim_,
            accel.name() + ".gio" + std::to_string(i),
            const_cast<AccelHandle &>(accel).memory(), layouts[i],
            cfg_.gio));
    }
    return out;
}

std::unique_ptr<AccelQueue>
Runtime::makeAccelQueue(const ClientQueueRef &ref)
{
    return std::make_unique<AccelQueue>(sim_, ref.mq->name() + ".gio",
                                        ref.accel->memory(), ref.layout,
                                        cfg_.gio);
}

} // namespace lynx::core
