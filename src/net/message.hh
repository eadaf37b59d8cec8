/**
 * @file
 * Application-level network messages.
 *
 * The network substrate is message-granular: a Message is one
 * application datagram / one TCP application record. Transport
 * behaviour is expressed as CPU stack costs (net/stack.hh) and wire
 * time, which is the level of detail the paper's experiments resolve
 * (requests/sec and request latency, not packet traces).
 */

#ifndef LYNX_NET_MESSAGE_HH
#define LYNX_NET_MESSAGE_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "payload.hh"
#include "sim/time.hh"

namespace lynx::net {

/** Transport protocol of a message. */
enum class Protocol : std::uint8_t { Udp, Tcp };

/** @return protocol name for diagnostics. */
inline const char *
protocolName(Protocol p)
{
    return p == Protocol::Udp ? "udp" : "tcp";
}

/** Network endpoint address: (node id, port). */
struct Address
{
    std::uint32_t node = 0;
    std::uint16_t port = 0;

    auto operator<=>(const Address &) const = default;
};

inline std::ostream &
operator<<(std::ostream &os, const Address &a)
{
    return os << "n" << a.node << ":" << a.port;
}

/**
 * One application message in flight.
 *
 * Deliberately 64 bytes: payload bytes live in a pooled Payload
 * (16-byte handle), so a Message moves by value through the event
 * calendar and still fits — together with a destination pointer —
 * inside the simulator's inline event storage (sim::EventFn). A
 * routed message therefore costs zero heap allocations.
 */
struct Message
{
    Address src;
    Address dst;
    Payload payload;

    /** Stamped by the sending application; carried end-to-end so the
     *  receiver (or the echoed-back client) can compute latency. */
    sim::Tick sentAt = 0;

    /** Generator sequence tag for request/response matching. */
    std::uint64_t seq = 0;

    /** Span-tracing id (sim/span.hh); 0 when tracing is off. Pure
     *  metadata: not part of size(), so it never affects wire or
     *  serialization timing. */
    std::uint64_t traceId = 0;

    /** Tenant id (lynx/tenant.hh); 0 = untenanted, the default VF.
     *  Like `ce` this lives in padding: not part of size(), never
     *  affects wire or serialization time. */
    std::uint16_t tenant = 0;

    Protocol proto = Protocol::Udp;

    /** Set by fault injection when payload bytes were flipped in the
     *  fabric. The receiving NIC's checksum verification drops such
     *  frames (net::Nic::deliver), so corruption never propagates
     *  above the NIC — it surfaces as loss. */
    bool corrupted = false;

    /** ECN Congestion Experienced: set by a congested egress port
     *  (net/congestion.hh) on the way through the fabric; the
     *  receiving NIC answers with a CNP to the source. Pure metadata
     *  (lives in padding): never affects wire or serialization time,
     *  and stays false while congestion control is disabled. */
    bool ce = false;

    /** @return payload size in bytes. */
    std::uint64_t size() const { return payload.size(); }
};

static_assert(sizeof(Message) == 64, "Message must stay event-inline");

} // namespace lynx::net

#endif // LYNX_NET_MESSAGE_HH
