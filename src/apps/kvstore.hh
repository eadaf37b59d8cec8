/**
 * @file
 * memcached-like key-value store.
 *
 * Serves two roles from the paper:
 *  - §6.3 / Fig. 9: "a typical server workload, memcached" competing
 *    with Lynx for host cores vs. running on the Bluefield;
 *  - §6.4: the backend database tier of the Face Verification
 *    server ("we use a memcached server to store the image
 *    database", accessed over TCP via client mqueues).
 *
 * The store is a real hash map with a compact binary get/set wire
 * protocol; the server charges a per-operation CPU cost on its cores
 * (calibrated per platform in lynx/calibration.hh).
 */

#ifndef LYNX_APPS_KVSTORE_HH
#define LYNX_APPS_KVSTORE_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/message.hh"
#include "net/nic.hh"
#include "net/stack.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace lynx::apps {

/** In-memory key-value storage. */
class KvStore
{
  public:
    void
    set(const std::string &key, std::vector<std::uint8_t> value)
    {
        map_[key] = std::move(value);
    }

    std::optional<std::vector<std::uint8_t>>
    get(const std::string &key) const
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return std::nullopt;
        return it->second;
    }

    bool erase(const std::string &key) { return map_.erase(key) > 0; }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<std::string, std::vector<std::uint8_t>> map_;
};

/**
 * @{
 * @name Wire protocol
 * Request:  [op u8 (0 = GET, 1 = SET)][keyLen u16][key bytes]
 *           [valLen u32][value bytes (SET only)]
 * Response: [status u8 (0 = OK, 1 = MISS)][valLen u32][value bytes]
 */
enum class KvOp : std::uint8_t { Get = 0, Set = 1 };
enum class KvStatus : std::uint8_t { Ok = 0, Miss = 1, Malformed = 2 };

std::vector<std::uint8_t> kvEncodeGet(const std::string &key);
/** Append the kvEncodeGet() bytes of @p key to @p buf. */
void kvAppendGet(std::string_view key, std::vector<std::uint8_t> &buf);
std::vector<std::uint8_t> kvEncodeSet(const std::string &key,
                                      std::span<const std::uint8_t> value);

struct KvRequest
{
    KvOp op = KvOp::Get;
    std::string key;
    std::vector<std::uint8_t> value;
};

/** @return nullopt for malformed input. */
std::optional<KvRequest> kvDecodeRequest(std::span<const std::uint8_t> buf);

std::vector<std::uint8_t> kvEncodeResponse(KvStatus status,
                                           std::span<const std::uint8_t>
                                               value);

struct KvResponse
{
    KvStatus status = KvStatus::Malformed;
    std::vector<std::uint8_t> value;
};

KvResponse kvDecodeResponse(std::span<const std::uint8_t> buf);
/** @} */

/** Apply @p req to @p store. @return the encoded response. */
std::vector<std::uint8_t> kvApply(KvStore &store, const KvRequest &req);

/** Network frontend of a KvStore. */
struct KvServerConfig
{
    std::string name = "kv";
    net::Nic *nic = nullptr;
    std::uint16_t port = 11211;
    net::Protocol proto = net::Protocol::Tcp;
    net::StackProfile stack;
    std::vector<sim::Core *> cores;

    /** CPU cost per operation (hashing, LRU bookkeeping, ...). */
    sim::Tick opCost = sim::microseconds(4);
};

/** A memcached-style server: one listener task per core. */
class KvServer
{
  public:
    KvServer(sim::Simulator &sim, KvStore &store, KvServerConfig cfg)
        : sim_(sim), store_(store), cfg_(std::move(cfg))
    {
        LYNX_FATAL_IF(!cfg_.nic, cfg_.name, ": needs a NIC");
        LYNX_FATAL_IF(cfg_.cores.empty(), cfg_.name, ": needs cores");
    }

    KvServer(const KvServer &) = delete;
    KvServer &operator=(const KvServer &) = delete;

    void
    start()
    {
        net::Endpoint &ep = cfg_.nic->bind(cfg_.proto, cfg_.port);
        for (auto *core : cfg_.cores)
            sim::spawn(sim_, serveLoop(ep, *core));
    }

    sim::StatSet &stats() { return stats_; }

  private:
    sim::Task
    serveLoop(net::Endpoint &ep, sim::Core &core)
    {
        for (;;) {
            net::Message msg = co_await ep.recv();
            co_await core.exec(
                cfg_.stack.cost(cfg_.proto, net::Dir::Recv, msg.size()));

            std::vector<std::uint8_t> respBytes;
            auto req = kvDecodeRequest(msg.payload);
            if (!req) {
                respBytes = kvEncodeResponse(KvStatus::Malformed, {});
                stats_.counter("malformed").add();
            } else {
                co_await core.exec(cfg_.opCost);
                respBytes = kvApply(store_, *req);
                stats_.counter(req->op == KvOp::Get ? "gets" : "sets")
                    .add();
            }

            net::Message out;
            out.src = net::Address{cfg_.nic->node(), cfg_.port};
            out.dst = msg.src;
            out.proto = msg.proto;
            out.payload = std::move(respBytes);
            out.seq = msg.seq;
            out.sentAt = msg.sentAt;
            co_await core.exec(
                cfg_.stack.cost(out.proto, net::Dir::Send, out.size()));
            co_await cfg_.nic->send(std::move(out));
        }
    }

    sim::Simulator &sim_;
    KvStore &store_;
    KvServerConfig cfg_;
    sim::StatSet stats_;
};

} // namespace lynx::apps

#endif // LYNX_APPS_KVSTORE_HH
