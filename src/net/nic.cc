#include "nic.hh"

#include "network.hh"
#include "sim/span.hh"

namespace lynx::net {

Nic::Nic(sim::Simulator &sim, Network &network, std::string name,
         std::uint32_t node, NicConfig cfg)
    : sim_(sim), network_(network), name_(std::move(name)), node_(node),
      cfg_(cfg), cTxMsgs_(&stats_.counter("tx_msgs")),
      cTxBytes_(&stats_.counter("tx_bytes")),
      cRxMsgs_(&stats_.counter("rx_msgs")),
      cRxBytes_(&stats_.counter("rx_bytes")),
      cRxDropCorrupt_(&stats_.counter("rx_drop_corrupt")),
      cRxNoEndpoint_(&stats_.counter("rx_no_endpoint")),
      cRxDropUdp_(&stats_.counter("rx_drop_udp")),
      cRxDropTcp_(&stats_.counter("rx_drop_tcp")),
      cCeRx_(&stats_.counter("ce_rx")),
      cCnpTx_(&stats_.counter("cnp_tx")),
      cCnpRx_(&stats_.counter("cnp_rx")),
      hFlowRateMbps_(&stats_.histogram("flow_rate_mbps"))
{
    sim_.metrics().add("net.nic." + name_, stats_);
}

Nic::~Nic()
{
    sim_.metrics().remove(stats_);
}

Endpoint &
Nic::bind(Protocol proto, std::uint16_t port)
{
    Key key{proto, port};
    LYNX_ASSERT(!endpoints_.contains(key), name_, ": port ", port, "/",
                protocolName(proto), " already bound");
    auto ep = std::make_unique<Endpoint>(sim_, proto, port, cfg_.queueDepth);
    Endpoint &ref = *ep;
    endpoints_[key] = std::move(ep);
    return ref;
}

void
Nic::unbind(Protocol proto, std::uint16_t port)
{
    endpoints_.erase(Key{proto, port});
}

Nic::FlowCc &
Nic::flowTo(std::uint32_t dstNode)
{
    auto it = flows_.find(dstNode);
    if (it == flows_.end()) {
        it = flows_
                 .try_emplace(dstNode,
                              network_.congestionConfig().dcqcn,
                              sim_.now())
                 .first;
    }
    return it->second;
}

Nic::SendAwaiter
Nic::send(Message m)
{
    LYNX_DEBUG_ASSERT(m.src.node == node_, name_,
                      ": spoofed source node");
    const CongestionConfig &cc = network_.congestionConfig();
    if (cc.enabled && cc.dcqcnEnabled && m.dst.node != node_)
        return {*this, {}, sendPaced(std::move(m))};
    return {*this, std::move(m), {}};
}

sim::Co<void>
Nic::sendPaced(Message m)
{
    countTx(m);
    // DCQCN rate limiter: hold the sender until the flow's paced
    // slot. Pacing is per destination; the TX-queue serialization
    // below still applies on top (the link is shared), read after
    // the pace wait.
    FlowCc &fc = flowTo(m.dst.node);
    sim::Tick pace = fc.dcqcn.paceTime(m.size(), sim_.now());
    sim::Tick start = std::max(sim_.now(), fc.nextAt);
    fc.nextAt = start + pace;
    if (start > sim_.now())
        co_await sim::sleep(start - sim_.now());
    co_await sim::sleep(occupyTx(m.size()) - sim_.now());
    onWire(std::move(m));
}

void
Nic::onWire(Message m)
{
    // Request on the wire. First-stamp-wins keeps the response's trip
    // through the server NIC from overwriting the client-side TX.
    if (sim::SpanCollector *spans = sim_.spans())
        spans->stamp(m.traceId, sim::Stage::NicTx, sim_.now());

    // Hardware egress latency happens off the sender's back.
    Network &net = network_;
    sim_.scheduleIn(cfg_.hwLatency, [&net, m = std::move(m)]() mutable {
        net.route(std::move(m));
    });
}

void
Nic::deliver(Message m)
{
    cRxMsgs_->add();
    cRxBytes_->add(m.size());

    if (m.corrupted) {
        // Checksum verification (Ethernet CRC / UDP checksum): a
        // frame corrupted in the fabric is dropped here, so no
        // corrupt payload is ever delivered to an endpoint.
        cRxDropCorrupt_->add();
        return;
    }

    if (m.ce) {
        // Congestion Experienced: notify the sender with a CNP, paced
        // per flow so a marking burst costs one notification.
        cCeRx_->add();
        const CongestionConfig &cc = network_.congestionConfig();
        if (cc.enabled && cc.dcqcnEnabled && m.src.node != node_) {
            sim::Tick &last = lastCnpTo_[m.src.node];
            if (last == 0 || sim_.now() - last >= cc.cnpMinInterval) {
                last = sim_.now();
                cCnpTx_->add();
                network_.sendCnp(node_, m.src.node);
            }
        }
    }

    auto it = endpoints_.find(Key{m.proto, m.dst.port});
    if (it == endpoints_.end()) {
        cRxNoEndpoint_->add();
        return;
    }
    Endpoint &ep = *it->second;
    bool pushed = ep.rx_.tryPush(std::move(m));
    ep.signalArrival();
    if (!pushed) {
        // Queue overflow. UDP drops; for TCP this models a zero
        // receive window, which we approximate by also dropping but
        // counting separately (the load generators never overrun a
        // TCP endpoint in the reproduced experiments).
        ++ep.dropped_;
        (ep.proto() == Protocol::Udp ? cRxDropUdp_ : cRxDropTcp_)->add();
    }
}

void
Nic::handleCnp(std::uint32_t congestedNode)
{
    cCnpRx_->add();
    FlowCc &fc = flowTo(congestedNode);
    fc.dcqcn.onCnp(sim_.now());
    hFlowRateMbps_->record(
        static_cast<std::uint64_t>(fc.dcqcn.rateGbps() * 1000.0));
}

} // namespace lynx::net
