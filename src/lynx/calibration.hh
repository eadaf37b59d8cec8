/**
 * @file
 * Calibration constants: every timing parameter of the reproduction
 * lives here, each justified by a measurement the paper itself
 * reports. Benchmarks and scenario builders reference these
 * constants; model code receives them through config structs and
 * never hard-codes timing.
 *
 * The reproduction targets the paper's *shape* (who wins, by what
 * factor, where crossovers fall) rather than absolute testbed
 * numbers; EXPERIMENTS.md records paper-vs-measured per figure.
 */

#ifndef LYNX_LYNX_CALIBRATION_HH
#define LYNX_LYNX_CALIBRATION_HH

#include "net/stack.hh"
#include "rdma/qp.hh"
#include "sim/time.hh"

namespace lynx::calibration {

using sim::microseconds;
using sim::nanoseconds;
using sim::Tick;

/*
 * ----- Network stacks (paper §5.1.1, §6.2, §6.3) -----
 *
 * "We employ VMA, a user-level networking library ... For
 * minimum-size UDP packets VMA reduces the processing latency by a
 * factor of 4 [on Bluefield]. The library is also efficient on the
 * host CPU resulting in 2x UDP latency reduction."
 *
 * Absolute levels are anchored on two paper numbers:
 *  - Fig. 8c: one Xeon core running Lynx saturates at 74 GPUs x
 *    3.5 Kreq/s = 259 Kreq/s  =>  ~3.9 us of CPU per request
 *    (stack rx+tx plus dispatch/forward overheads below);
 *  - Fig. 8c TCP: one Xeon core saturates at 7 GPUs = 24.5 Kreq/s
 *    =>  ~40 us of TCP stack work per request.
 */

/** VMA (kernel-bypass) stack on a Xeon core. */
inline net::StackProfile
vmaXeon()
{
    net::StackProfile p;
    p.udpRecv = nanoseconds(900);
    p.udpSend = nanoseconds(700);
    p.tcpRecv = microseconds(22);
    p.tcpSend = microseconds(18);
    p.perByte = 0.65;
    return p;
}

/** Linux kernel stack on a Xeon core (2x slower for UDP, §5.1.1). */
inline net::StackProfile
kernelXeon()
{
    net::StackProfile p = vmaXeon();
    p.udpRecv *= 2;
    p.udpSend *= 2;
    p.tcpRecv = static_cast<Tick>(p.tcpRecv * 1.5);
    p.tcpSend = static_cast<Tick>(p.tcpSend * 1.5);
    p.perByte = 2.0;
    return p;
}

/**
 * VMA stack on a Bluefield ARM A72 core.
 *
 * Anchors: Fig. 6 ("one needs 4 host CPU cores to match the
 * Bluefield performance" for 64 B requests => 7 ARM cores ~ 4 Xeon
 * cores => per-core base cost ~1.75x Xeon) and Fig. 8c (Bluefield
 * saturates at 102 GPUs x 3.5 K = 357 Kreq/s on ~800 B LeNet
 * requests => ~19.6 us/request across 7 cores; the difference to the
 * 64 B anchor is carried by the ARM's much slower per-byte copy
 * path). TCP: 15 GPUs => ~133 us/request across 7 cores (§6.3:
 * "ARM cores suffer from higher impact" under TCP).
 */
inline net::StackProfile
vmaBluefield()
{
    net::StackProfile p;
    p.udpRecv = nanoseconds(2400);
    p.udpSend = nanoseconds(1900);
    p.tcpRecv = microseconds(68);
    p.tcpSend = microseconds(60);
    p.perByte = 15.3;
    return p;
}

/** Kernel stack on Bluefield (4x slower UDP than VMA, §5.1.1). */
inline net::StackProfile
kernelBluefield()
{
    net::StackProfile p = vmaBluefield();
    p.udpRecv *= 4;
    p.udpSend *= 4;
    p.tcpRecv *= 2;
    p.tcpSend *= 2;
    p.perByte = 30.0;
    return p;
}

/*
 * ----- RDMA paths (paper §5.1) -----
 *
 * "enqueuing a single RDMA send request requires at least 4.8 usec
 * [from a GPU]" vs "IB RDMA requires less than 1 usec to invoke by
 * the CPU" — Lynx posts from the SNIC/CPU side, so the post cost is
 * the sub-microsecond one.
 */

/** CPU cost of posting one work request (ibv_post_send). */
constexpr Tick rdmaPostCost = nanoseconds(300);

/** Initiator NIC processing per RDMA op. */
constexpr Tick rdmaNicLatency = nanoseconds(600);

/** One-way PCIe peer-to-peer latency to a local accelerator. */
constexpr Tick rdmaLocalOneWay = nanoseconds(900);

/** Completion (ack) delay after delivery. */
constexpr Tick rdmaCompletionDelay = nanoseconds(900);

/** RDMA payload bandwidth, Gbit/s. */
constexpr double rdmaGbps = 50.0;

/**
 * Extra one-way latency to a *remote* accelerator through the
 * switch. Paper §6.3: "Using remote GPUs adds about 8 usec" of
 * end-to-end latency => ~4 us each way.
 */
constexpr Tick rdmaRemoteExtraOneWay = microseconds(4);

/*
 * ----- SNIC-side Lynx runtime costs -----
 *
 * Anchor (Fig. 7 discussion): with a zero-time GPU kernel the request
 * spends 14 us inside Lynx-on-Bluefield (UDP processing done ->
 * response ready) vs 11 us on the host CPU.
 */

/** Dispatcher CPU per message (tag alloc, ring mgmt) on Xeon. */
constexpr Tick dispatchCpuXeon = nanoseconds(300);

/** Dispatcher CPU per message on a Bluefield ARM core. */
constexpr Tick dispatchCpuArm = nanoseconds(1200);

/** Forwarder CPU per message (ring scan, tag lookup) on Xeon. */
constexpr Tick forwardCpuXeon = nanoseconds(300);

/** Forwarder CPU per message on ARM. */
constexpr Tick forwardCpuArm = nanoseconds(1200);

/**
 * Virtual-polling discovery latency: mean extra delay between an
 * accelerator raising a TX doorbell and the SNIC's polling loop
 * observing it (half a poll round).
 */
constexpr Tick snicPollDiscovery = nanoseconds(1000);

/*
 * ----- Batched dispatch & forwarding (extension) -----
 *
 * The paper's per-message RDMA pattern (§5.1: one coalesced write
 * per RX message; one read per TX slot) leaves doorbell-batching on
 * the table. These knobs cap the extension's batch sizes and the
 * adaptive poll backoff; defaults are deliberately modest — a batch
 * never spans a ring wrap, and the dominant saving is the per-op
 * post cost (rdmaPostCost + rdmaNicLatency), so returns diminish
 * well before ring capacity.
 */

/** Max RX messages coalesced into one RDMA write + doorbell. */
constexpr int snicRxMaxBatch = 16;

/** Max TX slots fetched per pipelined RDMA read. */
constexpr int snicTxMaxBatch = 16;

/** Dispatcher flush linger: how long a partial staged batch waits
 *  for company once the ingress backlog is empty. Only applied when
 *  the target queue is deeply backlogged with earlier in-flight
 *  requests (Dispatcher::stagedBehindBusyRing), so it adds no delay
 *  to idle or lightly-loaded queues; sized to roughly the drain time
 *  of a backlogged 16-slot ring of small messages. */
constexpr Tick snicDispatchFlushLinger = microseconds(30);

/** Adaptive discovery band (ForwarderConfig::pollBackoffMin/Max):
 *  a just-idle queue is re-polled after the min, a long-idle one
 *  after the max. The max matches snicPollDiscovery, so the
 *  idle-state cost never exceeds the fixed band {snicPollDiscovery,
 *  snicPollDiscovery} the platform configs use; batching configs
 *  lower the floor to the min. */
constexpr Tick snicPollBackoffMin = nanoseconds(100);
constexpr Tick snicPollBackoffMax = nanoseconds(1000);

/*
 * ----- Fault tolerance: RDMA retries & mqueue failover (extension) -----
 *
 * The paper's prototype assumes a healthy fabric; this reproduction
 * adds a calibrated recovery stack so the chaos suite can exercise
 * loss, corruption, delay and partitions without ever corrupting a
 * payload. Transport-level numbers follow InfiniBand RC practice
 * (retry_cnt = 3 is the canonical default; the retransmit timeout is
 * a few RTTs of the 4 us-each-way remote path). Software-level
 * numbers are sized so a transient fault burst is ridden out in
 * < 1 ms while a genuine partition is declared dead after ~2 ms of
 * consecutive failures — small against the 50 ms backend response
 * timeout already in BackendRoute.
 */

/** Hardware retransmissions per work request (IB retry_cnt). */
constexpr int rdmaHwRetries = 3;

/** Transport retransmission timeout per lost/corrupted attempt:
 *  roughly 2x the remote round trip (2 x 2 x 4 us). */
constexpr Tick rdmaRetransmitDelay = microseconds(16);

/** Software re-attempts after a completion error. Four attempts on
 *  top of the hardware budget mean a drop burst must survive
 *  (1 + hwRetries) x (1 + swRetries) = 20 consecutive judgements to
 *  kill a queue — vanishingly unlikely under transient loss, certain
 *  under a partition. */
constexpr int rdmaSwRetryLimit = 4;

/** Exponential software backoff: 2, 4, 8, ... us, capped at 64 us
 *  (past the cap a partition is better handled by failover than by
 *  waiting). */
constexpr Tick rdmaSwBackoffBase = microseconds(2);
constexpr Tick rdmaSwBackoffMax = microseconds(64);

/** The calibrated software retry policy above. Giving a Runtime's
 *  mqueues this policy (`mq.retry`) is what turns failover on. */
constexpr rdma::RdmaRetryPolicy
rdmaSwRetryPolicy()
{
    return {rdmaSwRetryLimit, rdmaSwBackoffBase, rdmaSwBackoffMax};
}

/** Health-monitor sweep period. 1 ms resolves a dead accelerator
 *  ~50x faster than the backend response timeout while adding only
 *  a handful of events per simulated millisecond. */
constexpr Tick failoverCheckInterval = sim::milliseconds(1);

/** Consecutive no-progress sweeps (with work in flight) before a
 *  queue is declared dead: 3 sweeps = 3 ms, an order of magnitude
 *  above the worst-case healthy service time of the LeNet kernel
 *  (~278 us), so a merely-slow accelerator is never killed. */
constexpr int failoverDeadStrikes = 3;

/** Revival probe period for dead queues. 5x the check interval:
 *  probing is cheap (one RDMA read) but each failed probe burns the
 *  hardware retransmit budget, so probing slower than detection
 *  keeps the dead path quiet. */
constexpr Tick failoverProbeInterval = sim::milliseconds(5);

/*
 * ----- Accelerator-side I/O (gio) -----
 */

/** Device-local memory poll/access latency (GPU L2/DRAM). */
constexpr Tick gpuLocalMemLatency = nanoseconds(200);

/** Device-side per-byte cost of building a message in local memory. */
constexpr double gpuLocalPerByte = 0.15;

/**
 * The §5.1 GPU consistency workaround (RDMA write + RDMA read
 * barrier + doorbell write instead of one coalesced write) "incurs
 * extra latency of 5 useconds to each message". The barrier mode of
 * SnicMqueue reproduces it from first principles (3 QP ops); this
 * constant is only the paper's reference value for EXPERIMENTS.md.
 */
constexpr Tick paperBarrierExtra = microseconds(5);

/*
 * ----- Batched GPU launches (extension) -----
 *
 * Dynamic request batching runs ONE kernel (sequence) over B inputs
 * instead of B kernel sequences. The per-launch residual is paid once
 * per batch; the compute side scales sublinearly because a
 * single-request LeNet layer leaves most SMs idle (28x28 feature maps
 * expose little parallelism even at the nominal 200-block grid), so
 * additional batched items largely fill holes the first item left.
 * Model: duration(B) = perItem * (1 + (min(B, sat) - 1) * marginal
 *                                   + max(B - sat, 0)),
 * i.e. each extra item up to the saturation point costs `marginal`
 * of the first, and past saturation the device is full and batching
 * degenerates to serial (marginal cost 1). B = 1 reproduces the
 * unbatched duration *exactly* — the golden-timestamp discipline.
 *
 * `accel::GpuConfig` carries these as numeric defaults (accel/ sits
 * below lynx/ in the layering); test_calibration pins them equal.
 */

/** Marginal duration of each additional batched item relative to the
 *  first, below the saturation point. 0.35 lands LeNet batch-8 at
 *  ~2.4x the unbatched throughput — the occupancy headroom a tiny
 *  per-layer kernel realistically leaves on a K40m. */
constexpr double gpuBatchMarginalItemCost = 0.35;

/** Batched items beyond which extra items cost full serial time
 *  (device saturated). */
constexpr int gpuBatchOccupancySaturation = 32;

/*
 * ----- Bluefield platform (paper §2, §6.3) -----
 */

/** Worker cores used for Lynx on Bluefield ("7 ARM cores out of 8"). */
constexpr int bluefieldWorkerCores = 7;

/**
 * Generic-compute slowdown of an 800 MHz A72 vs the Xeon reference
 * core. Anchor (Fig. 9): memcached does 400 Ktps on the whole
 * Bluefield vs 250 Ktps on one Xeon core => 7 ARM cores ~ 1.6 Xeon
 * cores => ~4.4x per core.
 */
constexpr double bluefieldCoreSlowdown = 4.4;

/** Bluefield link rate (25 Gb/s model vs 40 Gb/s elsewhere, §6). */
constexpr double bluefieldGbps = 25.0;

/*
 * ----- Innova / NICA AFU (paper §5.2, §6.2) -----
 *
 * "Innova achieves 7.4M packets/sec" receiving 64 B UDP messages
 * into 240 mqueues => ~135 ns per message through the AFU pipeline.
 */
constexpr Tick innovaAfuPerMessage = nanoseconds(135);

/** AFU-to-accelerator-memory write latency (UC custom ring). */
constexpr Tick innovaRingWriteLatency = microseconds(1);

/*
 * ----- GPU kernels of the evaluated applications -----
 */

/**
 * LeNet inference on K40m: Lynx reaches 3.5 Kreq/s with a single
 * server mqueue and the theoretical max is 3.6 Kreq/s (§6.3)
 * => ~278 us of pure GPU compute per request. Split across the
 * TVM-style per-layer child kernels launched with dynamic
 * parallelism.
 */
constexpr Tick lenetConv1 = microseconds(82);
constexpr Tick lenetPool1 = microseconds(15);
constexpr Tick lenetConv2 = microseconds(95);
constexpr Tick lenetPool2 = microseconds(12);
constexpr Tick lenetFc1 = microseconds(45);
constexpr Tick lenetFc2 = microseconds(16);
constexpr Tick lenetSoftmax = microseconds(8);
constexpr int lenetKernelCount = 7;

/** Total LeNet GPU time (sum of the layer kernels). */
constexpr Tick
lenetTotal()
{
    return lenetConv1 + lenetPool1 + lenetConv2 + lenetPool2 + lenetFc1 +
           lenetFc2 + lenetSoftmax;
}

/** K80 runs LeNet at 3300 req/s vs 3500 on K40m (§6.3 footnote). */
constexpr double k80ClockScale = 3500.0 / 3300.0;

/** LBP face-verification compare kernel: "about 50 us" (§6.4). */
constexpr Tick lbpKernelTime = microseconds(50);

/*
 * ----- memcached (paper §6.3, Fig. 9) -----
 *
 * "memcached on Bluefield achieves ... 400 Ktps vs 250 Ktps/core
 * [Xeon] ... at the expense of a dramatic latency increase (160 usec
 * vs 15 usec)".
 */

/** Per-op service cost of memcached on a Xeon core. */
constexpr Tick memcachedOpCostXeon = microseconds(2);

/** Per-op cost on a Bluefield ARM core (anchored on the whole-card
 *  400 Ktps of Fig. 9; general-purpose code pays the full ~4-6x A72
 *  penalty plus its cache disadvantage). */
constexpr Tick memcachedOpCostArm = microseconds(13);

/*
 * ----- Client-mqueue (backend) TCP costs -----
 *
 * Client mqueues talk to a fixed backend over one persistent TCP
 * connection (§4.3: "static connections ... to support a common
 * communication pattern for servers to access other back-end
 * services"), which is much cheaper per message than terminating
 * many short-lived client connections (the fig. 8c TCP numbers).
 */

/** Per-message backend-TCP costs on Xeon. */
inline net::StackProfile
backendTcpXeon()
{
    net::StackProfile p = vmaXeon();
    p.tcpRecv = microseconds(5);
    p.tcpSend = microseconds(4);
    return p;
}

/** Per-message backend-TCP costs on Bluefield ARM. The wimpy cores
 *  barely benefit from the persistent connection (§6.4: Lynx on
 *  Bluefield trails the Xeon core by ~5% "due to the slower TCP
 *  stack processing on Bluefield when accessing memcached"). */
inline net::StackProfile
backendTcpBluefield()
{
    net::StackProfile p = vmaBluefield();
    p.tcpRecv = microseconds(52);
    p.tcpSend = microseconds(46);
    return p;
}

/*
 * ----- Intel VCA (paper §5.4, §6.2) -----
 */

/** E3 core speed vs reference Xeon. */
constexpr double vcaCoreSlowdown = 1.3;

/** SGX enclave entry+exit cost per request. */
constexpr Tick sgxTransitionCost = microseconds(4);

/** AES decrypt+multiply+encrypt of the 4-byte secure server. */
constexpr Tick vcaComputeCost = microseconds(2);

/** IP-over-PCIe bridge hop (baseline path), each direction. Chosen
 *  so the baseline's 90th percentile is ~4.3x Lynx's 56 us (§6.2). */
constexpr Tick vcaBridgeLatency = microseconds(80);

/** VCA mqueue access latency (mqueues live in *host* memory due to
 *  the RDMA bug workaround, §5.4: "sub-optimal configuration"). */
constexpr Tick vcaQueueAccessLatency = microseconds(7);

} // namespace lynx::calibration

#endif // LYNX_LYNX_CALIBRATION_HH
