/**
 * @file
 * §6.2 "Integration with the Intel VCA" — a secure computing server
 * inside an SGX enclave on one VCA E3 processor: it receives a
 * 4-byte AES-encrypted message, decrypts it, multiplies by a
 * constant, re-encrypts, and replies. AES-128 is computed for real.
 *
 * Lynx path: mqueues live in *host* memory (the paper's workaround
 * for the VCA RDMA bug, "a sub-optimal configuration") and the E3
 * accesses them across the PCIe at a few microseconds per access;
 * the gio library is small enough to live inside the enclave TCB.
 *
 * Baseline: the stock IP-over-PCIe host network bridge ("the Intel
 * preferred way to connect the VCA to the network") plus the native
 * Linux stack on the VCA.
 *
 * Paper: Lynx reaches 56 us 90th-percentile latency, 4.3x lower than
 * the baseline, under 1 K req/s.
 */

#include "common.hh"

#include "accel/vca.hh"
#include "apps/aes.hh"

using namespace lynxbench;

namespace {

const apps::Aes128::Key kKey = {1, 2,  3,  4,  5,  6,  7,  8,
                                9, 10, 11, 12, 13, 14, 15, 16};
constexpr std::uint32_t kFactor = 3;

/** The paper-calibrated VCA. */
accel::VcaConfig
vcaConfig()
{
    accel::VcaConfig cfg;
    cfg.coreSlowdown = calibration::vcaCoreSlowdown;
    cfg.sgxTransitionCost = calibration::sgxTransitionCost;
    cfg.bridgeLatency = calibration::vcaBridgeLatency;
    cfg.queueAccessLatency = calibration::vcaQueueAccessLatency;
    return cfg;
}

/** Decrypt, multiply, encrypt — the enclave computation (real AES). */
std::vector<std::uint8_t>
enclaveCompute(const apps::Aes128 &aes,
               std::span<const std::uint8_t> payload)
{
    if (payload.size() != 16)
        return {};
    apps::Aes128::Block blk{};
    std::copy(payload.begin(), payload.end(), blk.begin());
    apps::Aes128::Block plain = aes.decrypt(blk);
    std::uint32_t v = static_cast<std::uint32_t>(plain[0]) |
                      (static_cast<std::uint32_t>(plain[1]) << 8) |
                      (static_cast<std::uint32_t>(plain[2]) << 16) |
                      (static_cast<std::uint32_t>(plain[3]) << 24);
    v *= kFactor;
    apps::Aes128::Block out{};
    out[0] = static_cast<std::uint8_t>(v);
    out[1] = static_cast<std::uint8_t>(v >> 8);
    out[2] = static_cast<std::uint8_t>(v >> 16);
    out[3] = static_cast<std::uint8_t>(v >> 24);
    apps::Aes128::Block enc = aes.encrypt(out);
    return {enc.begin(), enc.end()};
}

workload::LoadGenConfig
clientConfig(net::Nic &clientNic, net::Address target)
{
    workload::LoadGenConfig lg;
    lg.nic = &clientNic;
    lg.target = target;
    lg.openRate = 1000.0; // the paper's 1 K req/s load
    lg.warmup = 20_ms;
    lg.duration = 400_ms;
    lg.makeRequest = [](std::uint64_t seq, sim::Rng &) {
        apps::Aes128 aes(kKey);
        apps::Aes128::Block plain{};
        plain[0] = static_cast<std::uint8_t>(seq);
        plain[1] = static_cast<std::uint8_t>(seq >> 8);
        auto enc = aes.encrypt(plain);
        return std::vector<std::uint8_t>(enc.begin(), enc.end());
    };
    lg.validate = [](const net::Message &resp) {
        return resp.payload.size() == 16;
    };
    return lg;
}

double
measureLynx()
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    auto &clientNic = nw.addNic("client");
    apps::Aes128 aes(kKey);
    accel::Vca vca(s, "vca0", vcaConfig());
    accel::SgxEnclave enclave(
        vca, calibration::vcaComputeCost,
        [&aes](std::span<const std::uint8_t> in) {
            return enclaveCompute(aes, in);
        });

    core::RuntimeConfig cfg = bf.lynxRuntimeConfig();
    // The sub-optimal host-memory placement: each queue access from
    // the VCA costs a PCIe round trip (§5.4).
    cfg.gio.localLatency = vca.config().queueAccessLatency;
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("vca0", vca.hostWindow(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "sgx";
    scfg.port = 7200;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);

    auto worker = [&](core::AccelQueue &q) -> sim::Task {
        for (;;) {
            core::GioMessage m = co_await q.recv();
            auto resp =
                co_await enclave.call(vca.processor(0), m.payload);
            co_await q.send(m.tag, resp);
        }
    };
    sim::spawn(s, worker(*queues[0]));
    rt.start();

    workload::LoadGen gen(s, clientConfig(clientNic,
                                          {bf.node(), 7200}));
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);
    return sim::toMicroseconds(gen.latency().percentile(90));
}

double
measureBaseline()
{
    sim::Simulator s;
    net::Network nw(s);
    auto &clientNic = nw.addNic("client");
    host::Node vcaHost(s, nw, "vca-host");
    apps::Aes128 aes(kKey);
    accel::Vca vca(s, "vca0", vcaConfig());
    accel::SgxEnclave enclave(
        vca, calibration::vcaComputeCost,
        [&aes](std::span<const std::uint8_t> in) {
            return enclaveCompute(aes, in);
        });
    sim::Core &e3 = vca.processor(0);

    // Native path: requests arrive at the host NIC and traverse the
    // IP-over-PCIe bridge into the VCA's Linux stack, and back.
    net::Endpoint &ep = vcaHost.nic().bind(net::Protocol::Udp, 7200);
    auto stack = calibration::kernelXeon();
    auto server = [&]() -> sim::Task {
        for (;;) {
            net::Message m = co_await ep.recv();
            // Host bridge processing + PCIe tunnel, inbound.
            co_await vcaHost.cores()[0].exec(
                stack.cost(net::Protocol::Udp, net::Dir::Recv,
                           m.size()));
            co_await sim::sleep(vca.config().bridgeLatency);
            // VCA-side kernel network stack, then the enclave.
            co_await e3.exec(stack.cost(net::Protocol::Udp,
                                        net::Dir::Recv, m.size()));
            auto resp = co_await enclave.call(e3, m.payload);
            co_await e3.exec(stack.cost(net::Protocol::Udp,
                                        net::Dir::Send, resp.size()));
            co_await sim::sleep(vca.config().bridgeLatency);
            net::Message out;
            out.src = m.dst;
            out.dst = m.src;
            out.proto = m.proto;
            out.payload = std::move(resp);
            out.seq = m.seq;
            out.sentAt = m.sentAt;
            co_await vcaHost.cores()[0].exec(
                stack.cost(net::Protocol::Udp, net::Dir::Send,
                           out.size()));
            co_await vcaHost.nic().send(std::move(out));
        }
    };
    sim::spawn(s, server());

    workload::LoadGen gen(s, clientConfig(clientNic,
                                          {vcaHost.id(), 7200}));
    gen.start();
    s.runUntil(gen.windowEnd() + 10_ms);
    return sim::toMicroseconds(gen.latency().percentile(90));
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_vca_sgx",
           "SGX secure server on the Intel VCA: Lynx vs the native "
           "IP-over-PCIe bridge, 1 K req/s",
           "Lynx: 56 us p90, 4.3x lower than the baseline; the gio "
           "layer (20 LoC) is statically linked into the enclave");

    double lynxP90 = measureLynx();
    double baseP90 = measureBaseline();
    std::printf("%24s | %10s\n", "path", "p90 [us]");
    std::printf("%24s | %10.1f\n", "lynx (host-mem mqueues)", lynxP90);
    std::printf("%24s | %10.1f\n", "native bridge baseline", baseP90);
    std::printf("\nbaseline/lynx = %.1fx (paper: 4.3x; lynx p90 "
                "paper: 56 us)\n",
                baseP90 / lynxP90);
    return 0;
}
