/**
 * @file
 * NIC and bound endpoints.
 *
 * A Nic attaches one node to the Network. Applications bind()
 * (protocol, port) pairs to obtain Endpoints with a receive queue;
 * the NIC demultiplexes arriving messages by destination port.
 * Receive queues are finite: UDP overflow drops the message (counted
 * in stats), TCP overflow backpressures the network task.
 */

#ifndef LYNX_NET_NIC_HH
#define LYNX_NET_NIC_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "congestion.hh"
#include "message.hh"
#include "sim/channel.hh"
#include "sim/co.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/time.hh"

namespace lynx::net {

class Network;
class Nic;

/** A bound (protocol, port): the application's receive side. */
class Endpoint
{
  public:
    Endpoint(sim::Simulator &sim, Protocol proto, std::uint16_t port,
             std::size_t queueDepth)
        : sim_(sim), proto_(proto), port_(port), rx_(sim, queueDepth)
    {}

    /** Disarms a pending deadline timer (see armDeadlineTimer()). */
    ~Endpoint() { *self_ = nullptr; }

    Endpoint(const Endpoint &) = delete;
    Endpoint &operator=(const Endpoint &) = delete;

    /** @return bound protocol. */
    Protocol proto() const { return proto_; }

    /** @return bound port. */
    std::uint16_t port() const { return port_; }

    /** Await the next received message: the receive queue's own pop,
     *  so a receive starts no coroutine frame. */
    sim::Channel<Message>::PopAwaiter recv() { return rx_.pop(); }

    /**
     * Awaiter of a receive with a deadline: yields the next message,
     * or nullopt once the deadline has passed with none queued. Each
     * turn of the loop (on the first await and on every wakeup) takes
     * a queued message if there is one, gives up at the deadline, and
     * otherwise parks until the next arrival or the deadline. It runs
     * in the waker's event, where the parked coroutine would have
     * resumed, so it starts no frame.
     */
    struct RecvUntilAwaiter
    {
        Endpoint &ep;
        sim::Tick deadline;
        std::optional<Message> msg;

        /** @return whether the wait is over (msg set, or timed out). */
        bool
        done()
        {
            msg = ep.rx_.tryPop();
            return msg || ep.sim_.now() >= deadline;
        }

        bool await_ready() { return done(); }

        template <sim::SimPromise P>
        void
        await_suspend(std::coroutine_handle<P> h)
        {
            ep.parkArrival(h, this);
        }

        std::optional<Message> await_resume() { return std::move(msg); }
    };

    /** @return awaitable for the next message, or nullopt at
     *  @p deadline (see RecvUntilAwaiter). */
    RecvUntilAwaiter
    recvUntil(sim::Tick deadline)
    {
        return RecvUntilAwaiter{*this, deadline, std::nullopt};
    }

    /** Non-blocking receive. */
    std::optional<Message> tryRecv() { return rx_.tryPop(); }

    /** @return messages waiting in the receive queue. */
    std::size_t backlog() const { return rx_.size(); }

    /** @return messages dropped due to queue overflow (UDP only). */
    std::uint64_t dropped() const { return dropped_; }

  private:
    friend class Nic;

    /** A coroutine parked in recvUntil(); its loop runs before h
     *  resumes. */
    struct ArrivalWaiter
    {
        std::coroutine_handle<> h;
        RecvUntilAwaiter *recv;
    };

    /** Park @p h until the next arrival or @p recv's deadline. */
    void
    parkArrival(std::coroutine_handle<> h, RecvUntilAwaiter *recv)
    {
        arrivalWaiters_.push_back({h, recv});
        armDeadlineTimer(recv->deadline);
    }

    /** Resume waiter @p w if its wait is over, else park it again. */
    void
    wake(const ArrivalWaiter &w)
    {
        if (w.recv->done())
            w.h.resume();
        else
            parkArrival(w.h, w.recv);
    }

    /** Run the loop of everything parked in recvUntil(). */
    void
    signalArrival()
    {
        for (const ArrivalWaiter &w : arrivalWaiters_)
            sim_.scheduleIn(0, [this, w] { wake(w); });
        arrivalWaiters_.clear();
    }

    /**
     * Ensure the endpoint's deadline timer fires at or before @p when.
     * One timer serves every waiter: it is re-armed only for a deadline
     * earlier than the armed one, so a stream of answered waits with
     * growing deadlines schedules one event per timeout span, not one
     * per wait. The event holds self_, not the endpoint, so it may
     * outlive an unbind.
     */
    void
    armDeadlineTimer(sim::Tick when)
    {
        if (when >= timerAt_)
            return;
        timerAt_ = when;
        sim_.schedule(when, [self = self_, when] {
            if (Endpoint *ep = *self)
                ep->onDeadlineTimer(when);
        });
    }

    /**
     * Resume the first waiter (in park order) whose deadline has come,
     * inline, as a per-wait timer event would, and re-arm for the
     * earliest remaining deadline. After an earlier deadline re-armed,
     * more than one timer event may be pending: only the one at
     * timerAt_ clears it, and any of them may wake a due waiter.
     */
    void
    onDeadlineTimer(sim::Tick when)
    {
        if (when == timerAt_)
            timerAt_ = sim::maxTick;
        std::optional<ArrivalWaiter> due;
        sim::Tick next = sim::maxTick;
        for (auto it = arrivalWaiters_.begin(); it != arrivalWaiters_.end();) {
            if (!due && it->recv->deadline <= sim_.now()) {
                due = *it;
                it = arrivalWaiters_.erase(it);
            } else {
                next = std::min(next, it->recv->deadline);
                ++it;
            }
        }
        if (next != sim::maxTick)
            armDeadlineTimer(next);
        // Last: the resumed coroutine may unbind this endpoint.
        if (due)
            wake(*due);
    }

    sim::Simulator &sim_;
    Protocol proto_;
    std::uint16_t port_;
    sim::Channel<Message> rx_;
    std::vector<ArrivalWaiter> arrivalWaiters_;

    /** When the earliest pending deadline timer fires (maxTick: none). */
    sim::Tick timerAt_ = sim::maxTick;

    /** Liveness token shared with pending timer events; cleared by the
     *  destructor. */
    std::shared_ptr<Endpoint *> self_ = std::make_shared<Endpoint *>(this);
    std::uint64_t dropped_ = 0;
};

/** Physical port configuration of a NIC. */
struct NicConfig
{
    /** Link rate in Gbit/s. */
    double gbps = 40.0;

    /** Fixed NIC hardware traversal latency (each direction). */
    sim::Tick hwLatency = sim::nanoseconds(300);

    /** Endpoint receive-queue depth, in messages. */
    std::size_t queueDepth = 4096;
};

/** One network adapter attached to the switch fabric. */
class Nic
{
  public:
    Nic(sim::Simulator &sim, Network &network, std::string name,
        std::uint32_t node, NicConfig cfg);
    ~Nic();

    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    /** @return diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return node id this NIC gives network presence to. */
    std::uint32_t node() const { return node_; }

    /** @return link configuration. */
    const NicConfig &config() const { return cfg_; }

    /** @return the simulator this NIC lives on. */
    sim::Simulator &simulator() { return sim_; }

    /** @return the network this NIC is attached to. */
    const Network &network() const { return network_; }

    /**
     * Bind (@p proto, @p port) and return its endpoint.
     * @pre the pair is not yet bound.
     */
    Endpoint &bind(Protocol proto, std::uint16_t port);

    /** Release a binding. */
    void unbind(Protocol proto, std::uint16_t port);

    /**
     * Awaiter of send(). The sender takes the TX queue's next slot as
     * it suspends and resumes when its message has serialized; the
     * message is then on the wire (NicTx), and the route closure runs
     * after `hwLatency`. A send that is DCQCN-paced (see send())
     * runs in a coroutine instead, since it waits twice.
     */
    struct [[nodiscard]] SendAwaiter
    {
        Nic &nic;
        Message m;
        sim::Co<void> paced;

        bool await_ready() const noexcept { return false; }

        template <sim::SimPromise P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h)
        {
            if (paced)
                return paced.operator co_await().await_suspend(h);
            nic.countTx(m);
            nic.sim_.schedule(nic.occupyTx(m.size()), h);
            return std::noop_coroutine();
        }

        void
        await_resume()
        {
            if (!paced)
                nic.onWire(std::move(m));
        }
    };

    /**
     * Transmit @p m into the fabric. Serializes at link rate (the
     * sending task is held for the serialization time, modelling a
     * busy TX queue) and delivers asynchronously. Only a send to a
     * remote node under DCQCN (`enabled && dcqcnEnabled`) starts a
     * coroutine frame: it first waits for its flow's paced slot.
     */
    SendAwaiter send(Message m);

    /** Called by the Network when a message arrives for this node. */
    void deliver(Message m);

    /**
     * Called by the Network when a CNP arrives: the receiver at
     * @p congestedNode saw a CE mark on one of our frames. Applies a
     * DCQCN rate cut to the flow toward that node.
     */
    void handleCnp(std::uint32_t congestedNode);

    /** @return the DCQCN state of the flow toward @p dstNode, or
     *  nullptr if that flow has never been rate-limited (test/debug
     *  introspection). */
    const Dcqcn *
    dcqcnFor(std::uint32_t dstNode) const
    {
        auto it = flows_.find(dstNode);
        return it == flows_.end() ? nullptr : &it->second.dcqcn;
    }

    /** TX/RX counters and drop statistics. */
    sim::StatSet &stats() { return stats_; }

    /** @return serialization time of @p bytes at link rate. */
    sim::Tick
    serialization(std::uint64_t bytes) const
    {
        return static_cast<sim::Tick>(static_cast<double>(bytes) * 8.0 /
                                      cfg_.gbps);
    }

  private:
    using Key = std::pair<Protocol, std::uint16_t>;

    /** Sender-side congestion state of one flow (one destination). */
    struct FlowCc
    {
        Dcqcn dcqcn;

        /** Earliest time the next frame of this flow may start
         *  serializing (DCQCN rate-limiter pacing). */
        sim::Tick nextAt = 0;

        explicit FlowCc(const DcqcnConfig &cfg, sim::Tick now)
            : dcqcn(cfg, now)
        {}
    };

    /** The rate limiter of the flow toward @p dstNode, created on
     *  first transmission (only while DCQCN is enabled). */
    FlowCc &flowTo(std::uint32_t dstNode);

    /** Count @p m as transmitted. */
    void
    countTx(const Message &m)
    {
        cTxMsgs_->add();
        cTxBytes_->add(m.size());
    }

    /** Occupy the TX queue for the serialization of @p bytes: a
     *  sender that outpaces the link sees back-pressure.
     *  @return when the message has left the queue. */
    sim::Tick
    occupyTx(std::uint64_t bytes)
    {
        txBusyUntil_ = std::max(sim_.now(), txBusyUntil_) +
                       serialization(bytes);
        return txBusyUntil_;
    }

    /** @p m is on the wire now: stamp it and route it after the
     *  hardware egress latency. */
    void onWire(Message m);

    /** A DCQCN-paced send: the pace wait, then the TX queue. */
    sim::Co<void> sendPaced(Message m);

    sim::Simulator &sim_;
    Network &network_;
    std::string name_;
    std::uint32_t node_;
    NicConfig cfg_;
    sim::Tick txBusyUntil_ = 0;
    std::map<Key, std::unique_ptr<Endpoint>> endpoints_;
    std::map<std::uint32_t, FlowCc> flows_;

    /** Receiver role: last CNP emission time per flow source, for
     *  CNP pacing (at most one per `cnpMinInterval`). */
    std::map<std::uint32_t, sim::Tick> lastCnpTo_;

    sim::StatSet stats_;

    /** Per-message counters, resolved once at construction: the data
     *  plane must not do string map lookups per packet. */
    sim::Counter *cTxMsgs_;
    sim::Counter *cTxBytes_;
    sim::Counter *cRxMsgs_;
    sim::Counter *cRxBytes_;
    sim::Counter *cRxDropCorrupt_;
    sim::Counter *cRxNoEndpoint_;
    sim::Counter *cRxDropUdp_;
    sim::Counter *cRxDropTcp_;
    sim::Counter *cCeRx_;
    sim::Counter *cCnpTx_;
    sim::Counter *cCnpRx_;
    sim::Histogram *hFlowRateMbps_;
};

} // namespace lynx::net

#endif // LYNX_NET_NIC_HH
