/**
 * @file
 * Mellanox Innova Flex SNIC with a NICA-style AFU (paper §2 Fig. 2a,
 * §5.2): a bump-in-the-wire FPGA in front of the ConnectX-4 ASIC.
 * The Lynx network server is an Accelerated Function Unit behind the
 * on-FPGA UDP stack; it "listens on a given UDP port, appends the
 * metadata to each message, and places the payload onto the
 * available custom ring used as an mqueue".
 *
 * Two operating modes:
 *
 *  - attachReceiveService(): the paper's prototype — receive path
 *    only ("it does not yet support the send path"), 7.4 M pkt/s.
 *  - attachEchoService(): the paper's *stated future work* ("the
 *    requirement to use the CPU thread is not fundamental, and will
 *    be removed in the future with the NICA implementation of custom
 *    rings using one-sided RDMA"): full duplex — the AFU allocates
 *    response tags, polls TX doorbells, and sends responses, all in
 *    hardware (zero CPU anywhere).
 *
 * The AFU pipeline processes one message per `afuPerMessage` — the
 * specialized-hardware advantage the §6.2 "Bluefield vs Innova"
 * experiment measures (7.4 M vs 0.5 M pkt/s).
 */

#ifndef LYNX_SNIC_INNOVA_HH
#define LYNX_SNIC_INNOVA_HH

#include <memory>
#include <string>
#include <vector>

#include "lynx/calibration.hh"
#include "lynx/dispatcher.hh"
#include "lynx/forwarder.hh"
#include "lynx/snic_mqueue.hh"
#include "net/network.hh"
#include "net/nic.hh"
#include "sim/processor.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/task.hh"

namespace lynx::snic {

/** Static parameters of the Innova AFU. */
struct InnovaConfig
{
    /** AFU pipeline initiation interval per message. */
    sim::Tick afuPerMessage = calibration::innovaAfuPerMessage;

    /** 40 Gb/s ConnectX-4 Lx EN port (§6). */
    net::NicConfig nic{40.0, sim::nanoseconds(300), 65536};
};

/** An Innova Flex SNIC running the Lynx AFU. */
class InnovaAfu
{
  public:
    InnovaAfu(sim::Simulator &sim, net::Network &network,
              const std::string &name, InnovaConfig cfg = {})
        : sim_(sim), name_(name), cfg_(cfg),
          nic_(network.addNic(name + ".nic", cfg.nic)),
          afuEngine_(sim, name + ".afu", 0.0), tenants_(sim, {})
    {}

    InnovaAfu(const InnovaAfu &) = delete;
    InnovaAfu &operator=(const InnovaAfu &) = delete;

    const std::string &name() const { return name_; }
    net::Nic &nic() { return nic_; }
    std::uint32_t node() const { return nic_.node(); }

    /**
     * @return the AFU pseudo-core: QP posting from the FPGA pipeline
     * costs no CPU (speed factor 0), unlike the software runtimes.
     */
    sim::Core &afuCore() { return afuEngine_; }

    /**
     * Listen on UDP @p port and steer messages round-robin into
     * @p queues — the paper's receive-only prototype (responses are
     * never generated).
     */
    void
    attachReceiveService(std::uint16_t port,
                         std::vector<core::SnicMqueue *> queues)
    {
        LYNX_ASSERT(!queues.empty(), name_, ": no mqueues attached");
        net::Endpoint &ep = nic_.bind(net::Protocol::Udp, port);
        sim::spawn(sim_, afuRxLoop(ep, std::move(queues),
                                   /*allocTags=*/false, nullptr));
    }

    /**
     * Full-duplex hardware service (the §5.2 future-work variant):
     * ingress like attachReceiveService but with response-tag
     * allocation; egress through an all-hardware forwarding pipeline
     * over the same one-sided-RDMA rings.
     */
    void
    attachEchoService(std::uint16_t port,
                      std::vector<core::SnicMqueue *> queues)
    {
        LYNX_ASSERT(!queues.empty(), name_, ": no mqueues attached");
        // Hardware pipelines have no software stack cost; the AFU
        // pseudo-core makes every CPU charge free while the per-
        // message pipeline interval is enforced in the loops.
        net::StackProfile hw{};
        core::ForwarderConfig fcfg;
        fcfg.forwardCpu = 0;
        fcfg.pollBackoffMin = cfg_.afuPerMessage;
        fcfg.pollBackoffMax = cfg_.afuPerMessage;
        fcfg.scanPerQueue = 0;
        egress_ = std::make_unique<core::Forwarder>(
            sim_, name_ + ".egress", afuEngine_, nic_, hw, hw, tenants_,
            fcfg);
        for (auto *mq : queues)
            egress_->addQueue(mq, port);
        egress_->start();

        net::Endpoint &ep = nic_.bind(net::Protocol::Udp, port);
        sim::spawn(sim_, afuRxLoop(ep, std::move(queues),
                                   /*allocTags=*/true, egress_.get()));
    }

    sim::StatSet &stats() { return stats_; }

  private:
    sim::Task
    afuRxLoop(net::Endpoint &ep, std::vector<core::SnicMqueue *> queues,
              bool allocTags, core::Forwarder *egress)
    {
        (void)egress;
        std::size_t rr = 0;
        for (;;) {
            net::Message msg = co_await ep.recv();
            // Fixed-rate pipeline: one message per initiation
            // interval, no CPU anywhere.
            co_await sim::sleep(cfg_.afuPerMessage);
            core::SnicMqueue &mq = *queues[rr++ % queues.size()];
            std::uint32_t tag = 0;
            if (allocTags) {
                core::ClientRef client;
                client.addr = msg.src;
                client.proto = msg.proto;
                client.seq = msg.seq;
                client.sentAt = msg.sentAt;
                auto t = mq.allocTag(client);
                if (!t) {
                    stats_.counter("afu_tag_full").add();
                    continue;
                }
                tag = *t;
                tenants_.admit(core::kDefaultVf); // uncapped VF
            }
            bool ok = co_await mq.rxPush(afuEngine_, msg.payload, tag);
            if (!ok && allocTags) {
                mq.releaseTag(tag);
                tenants_.abandoned(core::kDefaultVf);
            }
            stats_.counter(ok ? "afu_delivered" : "afu_ring_full").add();
        }
    }

    sim::Simulator &sim_;
    std::string name_;
    InnovaConfig cfg_;
    net::Nic &nic_;
    /** Zero-cost executor: hardware posting, not software. */
    sim::Core afuEngine_;
    /** The echo service's VF ledger (all default-VF traffic). */
    core::TenantTable tenants_;
    std::unique_ptr<core::Forwarder> egress_;
    sim::StatSet stats_;
};

} // namespace lynx::snic

#endif // LYNX_SNIC_INNOVA_HH
