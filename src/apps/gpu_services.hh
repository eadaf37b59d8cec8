/**
 * @file
 * The accelerated services evaluated in the paper, as reusable
 * building blocks shared by the examples and the benchmark harness:
 *
 *  - echo / emulated-processing persistent-kernel servers (§6.2
 *    microbenchmarks, Fig. 6/7 and the Fig. 8c projection method);
 *  - the LeNet inference server (§6.3): "a single GPU thread polls
 *    the server mqueue. Then, it invokes the GPU kernels that
 *    implement the actual neural network inference using ...
 *    dynamic parallelism";
 *  - the Face Verification server (§6.4): 28 server mqueues, each
 *    polled by one threadblock that fetches the enrolled image from
 *    memcached through a client mqueue and runs the LBP compare;
 *  - host-centric handler counterparts for the baseline server.
 *
 * All services compute real results (LeNet forward pass, LBP, byte
 * echoes) while charging calibrated GPU time, so benchmark clients
 * double as end-to-end correctness checks.
 */

#ifndef LYNX_APPS_GPU_SERVICES_HH
#define LYNX_APPS_GPU_SERVICES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "accel/gpu.hh"
#include "apps/kvstore.hh"
#include "apps/lbp.hh"
#include "apps/lenet.hh"
#include "baseline/host_server.hh"
#include "lynx/calibration.hh"
#include "lynx/gio.hh"
#include "sim/task.hh"

namespace lynx::apps {

/*
 * ----- Persistent-kernel (Lynx) services -----
 */

/**
 * Dynamic request batching policy shared by the persistent-kernel
 * services. Every service has one serve loop; maxBatch = 1 (default)
 * runs it on batches of one, the seed per-message timing tick for
 * tick.
 */
struct ServiceBatchConfig
{
    /** Serve up to this many requests per iteration; 1 = one at a
     *  time (unbatched). */
    int maxBatch = 1;

    /** Bounded wait to top up a partial batch under backlog. An idle
     *  ring (single ready request) is always served immediately, so
     *  low-load latency is unaffected; the linger applies once, only
     *  when 2..maxBatch-1 requests arrived together. 0 = never. */
    sim::Tick linger = 0;
};

/**
 * Echo server block: one persistent threadblock polls @p q, waits
 * @p procTime of emulated request processing on the GPU, and sends
 * the payload back ("1 thread which copies the input to the output,
 * and waits for a predefined period emulating request processing",
 * §6.2). Holds one threadblock slot forever.
 *
 * Requests are drained with recvBatch (one poll + one consumer
 * update per sweep, up to @p batch.maxBatch), processed back-to-back,
 * and answered with sendBatch (one doorbell write per ring segment);
 * emulated processing stays serial per request.
 */
sim::Task runEchoBlock(accel::Gpu &gpu, core::AccelQueue &q,
                       sim::Tick procTime, std::size_t respBytes = 0,
                       ServiceBatchConfig batch = {});

/**
 * Vector-scale server block (§3.2 noisy-neighbor victim): requests
 * carry little-endian u32 vectors; the response is each element
 * multiplied by @p factor.
 */
sim::Task runVectorScaleBlock(accel::Gpu &gpu, core::AccelQueue &q,
                              std::uint32_t factor, sim::Tick procTime);

/** LeNet service knobs. */
struct LenetServiceConfig
{
    /** Blocks each per-layer child kernel occupies. LeNet kernels
     *  saturate the device, so inference is serial per GPU (the
     *  paper's single-GPU ceiling of ~3.6 Kreq/s). */
    int childBlocks = 200;

    /** Launch children with dynamic parallelism (true, §6.3) or
     *  charge one fused kernel (ablation). */
    bool dynamicParallelism = true;

    /** Relative kernel-duration jitter (uniform +-jitterPct), for
     *  realistic latency distributions; 0 = deterministic. */
    double jitterPct = 0.0;
    std::uint64_t jitterSeed = 99;

    /** Dynamic request batching: classify up to this many images per
     *  batched child-kernel sequence (one launch per layer for the
     *  whole batch, occupancy-aware duration). 1 = one image per
     *  launch (seed behaviour, bit-identical timing). */
    int maxBatch = 1;

    /** Bounded top-up wait for a partial batch under backlog (see
     *  ServiceBatchConfig::linger). */
    sim::Tick batchLinger = 0;
};

/**
 * LeNet inference server: persistent single-thread poller block that
 * spawns the per-layer child kernels and replies with
 * [digit u8][probabilities are not sent — matches the paper's
 * "returns the recognized digit"]. Requests are 784-byte images.
 */
sim::Task runLenetServer(accel::Gpu &gpu, core::AccelQueue &q,
                         const LeNet &net, LenetServiceConfig cfg = {});

/** Face-verification request: [12-byte label][1024-byte image]. */
constexpr std::size_t faceVerLabelBytes = 12;
constexpr std::size_t faceVerImageBytes = 32 * 32;
constexpr std::size_t faceVerRequestBytes =
    faceVerLabelBytes + faceVerImageBytes;

/** Response codes of the face verification service. */
enum class FaceVerResult : std::uint8_t
{
    NoMatch = 0,
    Match = 1,
    UnknownLabel = 2,
    Malformed = 3,
    /** The database tier did not answer (client-mqueue error status). */
    BackendError = 4,
};

/** LBP decision threshold used by the service (calibrated on the
 *  synthetic FERET-like set: same-person distances ≲400, different-
 *  person distances ≳400). */
constexpr double faceVerThreshold = 400.0;

/**
 * Face Verification worker: one persistent threadblock per server
 * mqueue. For each request it GETs the enrolled image for the label
 * from the KV backend through @p dbQ (client mqueue), runs the LBP
 * compare (≈50 us of GPU time, real LBP result), and replies with a
 * FaceVerResult byte.
 *
 * Each drained batch (up to @p batch.maxBatch requests) issues its
 * backend GETs as one sendBatch on @p dbQ, collects the replies,
 * charges one occupancy-aware batched LBP kernel for the whole batch,
 * and answers with one sendBatch on @p serverQ. Per-request answers
 * do not depend on the batch size.
 */
sim::Task runFaceVerWorker(accel::Gpu &gpu, core::AccelQueue &serverQ,
                           core::AccelQueue &dbQ,
                           ServiceBatchConfig batch = {});

/*
 * ----- Host-centric (baseline) handlers -----
 */

/** Echo pipeline: H2D, one kernel of @p procTime, D2H, sync. */
baseline::HostHandler hostEchoHandler(sim::Tick procTime,
                                      int blocks = 1);

/**
 * LeNet pipeline: H2D, the per-layer kernel sequence (one driver
 * launch each — what TVM-generated code does), D2H, sync; computes
 * the real classification.
 */
baseline::HostHandler hostLenetHandler(const LeNet &net,
                                       LenetServiceConfig cfg = {});

/**
 * Face-verification pipeline: asynchronously GET the enrolled image
 * from the KV backend at @p backend via @p backendNic, then H2D both
 * images, LBP compare kernel, D2H, sync ("The access to memcached is
 * asynchronous", §6.4).
 */
baseline::HostHandler
hostFaceVerHandler(sim::Simulator &sim, net::Nic &nic,
                   net::Address backend, net::StackProfile stack);

/** Compute the face-verification answer (shared by all versions). */
FaceVerResult faceVerDecide(std::span<const std::uint8_t> request,
                            const std::optional<std::vector<std::uint8_t>>
                                &enrolled);

} // namespace lynx::apps

#endif // LYNX_APPS_GPU_SERVICES_HH
