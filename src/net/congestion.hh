/**
 * @file
 * RoCEv2-style congestion control for the fabric model (extension —
 * ROADMAP item 3): per-port egress queues with RED-style ECN marking,
 * DCQCN rate control (the reaction-point algorithm of Zhu et al.,
 * SIGCOMM'15, timer-driven variant), and the PFC pause/resume knobs
 * consumed by the SNIC mqueue layer.
 *
 * Everything here is header-only and depends only on sim/: it is
 * shared by net::Network / net::Nic (datagram flows through the
 * switch) and rdma::QueuePair (RDMA flows into accelerator memory),
 * which sit in libraries that do not link each other.
 *
 * Determinism contract: a default CongestionConfig (enabled == false)
 * must leave every consumer on its exact seed code path — no state,
 * no Rng draws, no extra events — so seed timestamps replay
 * bit-identically (the golden-timestamp discipline). All marking
 * randomness comes from one seeded Rng per CongestionPoint.
 */

#ifndef LYNX_NET_CONGESTION_HH
#define LYNX_NET_CONGESTION_HH

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/time.hh"

namespace lynx::net {

/** DCQCN reaction-point parameters (per flow / per QP). */
struct DcqcnConfig
{
    /** Full rate the flow starts at and can never exceed, Gbit/s
     *  (the bottleneck link rate, not necessarily the local port). */
    double lineRateGbps = 25.0;

    /** Rate floor: repeated CNPs can never starve a flow below this
     *  (a flow that reaches zero could never probe for recovery). */
    double minRateGbps = 0.05;

    /** Alpha gain g: on CNP alpha <- (1-g)*alpha + g; per decay
     *  epoch without CNPs alpha <- (1-g)*alpha. */
    double g = 1.0 / 16.0;

    /** Alpha decay epoch (DCQCN's alpha-update timer, 55 us). */
    sim::Tick alphaTimer = sim::microseconds(55);

    /** Rate-recovery epoch. Each elapsed epoch since the last CNP is
     *  one recovery step (timer-driven: no byte counter). */
    sim::Tick rateTimer = sim::microseconds(100);

    /** Additive increase of the target rate per active-increase
     *  epoch, Gbit/s. */
    double aiGbps = 0.1;

    /** Hyper increase per epoch once the flow has been CNP-free for
     *  2*fastRecovery epochs, Gbit/s. */
    double haiGbps = 0.5;

    /** Fast-recovery steps F: the first F epochs after a CNP only
     *  halve the distance back to the target rate. */
    int fastRecovery = 5;
};

/**
 * DCQCN reaction point: one sender-side rate limiter.
 *
 * State advances *lazily* — advance(now) replays the alpha-decay and
 * rate-recovery epochs elapsed since the last event — so an idle flow
 * costs no simulator events and the machine stays deterministic (it
 * is driven purely by send and CNP times).
 *
 * Invariants (property-tested): rate ∈ [minRateGbps, lineRateGbps]
 * and alpha ∈ [0, 1] after every transition.
 */
class Dcqcn
{
  public:
    explicit Dcqcn(DcqcnConfig cfg = {}, sim::Tick now = 0)
        : cfg_(cfg), rate_(cfg.lineRateGbps), target_(cfg.lineRateGbps),
          lastAlpha_(now), lastEpoch_(now)
    {
        LYNX_ASSERT(cfg_.minRateGbps > 0.0 &&
                        cfg_.minRateGbps <= cfg_.lineRateGbps,
                    "DCQCN rate floor outside (0, lineRate]");
    }

    /** A CNP arrived at @p now: cut the rate by alpha/2, remember the
     *  pre-cut rate as the recovery target, bump alpha. */
    void
    onCnp(sim::Tick now)
    {
        advance(now);
        target_ = rate_;
        rate_ = std::max(cfg_.minRateGbps,
                         rate_ * (1.0 - alpha_ / 2.0));
        alpha_ = std::min(1.0, (1.0 - cfg_.g) * alpha_ + cfg_.g);
        stage_ = 0;
        lastAlpha_ = lastEpoch_ = now;
        ++cuts_;
    }

    /** @return the allowed sending rate at @p now (Gbit/s), after
     *  applying any recovery epochs elapsed since the last event. */
    double
    rateAt(sim::Tick now)
    {
        advance(now);
        return rate_;
    }

    /** @return pacing delay for @p bytes at the current rate. */
    sim::Tick
    paceTime(std::uint64_t bytes, sim::Tick now)
    {
        return static_cast<sim::Tick>(static_cast<double>(bytes) * 8.0 /
                                      rateAt(now));
    }

    double rateGbps() const { return rate_; }
    double targetGbps() const { return target_; }
    double alpha() const { return alpha_; }
    std::uint64_t cuts() const { return cuts_; }
    std::uint64_t increases() const { return increases_; }
    const DcqcnConfig &config() const { return cfg_; }

  private:
    /** Replay the epochs in (lastEvent, now]. Amortized O(1): each
     *  epoch is consumed exactly once across the flow's lifetime. */
    void
    advance(sim::Tick now)
    {
        while (lastAlpha_ + cfg_.alphaTimer <= now) {
            lastAlpha_ += cfg_.alphaTimer;
            alpha_ *= 1.0 - cfg_.g;
        }
        while (lastEpoch_ + cfg_.rateTimer <= now) {
            lastEpoch_ += cfg_.rateTimer;
            ++stage_;
            if (rate_ >= cfg_.lineRateGbps)
                continue; // already at line rate: nothing to recover
            // Fast recovery halves the distance to the target; after
            // F epochs the target itself starts rising (additive,
            // then hyper after 2F CNP-free epochs).
            if (stage_ > cfg_.fastRecovery) {
                double inc = stage_ > 2 * cfg_.fastRecovery
                                 ? cfg_.haiGbps
                                 : cfg_.aiGbps;
                target_ = std::min(cfg_.lineRateGbps, target_ + inc);
            }
            rate_ = std::min(cfg_.lineRateGbps,
                             0.5 * (rate_ + target_));
            ++increases_;
        }
    }

    DcqcnConfig cfg_;
    double rate_;
    double target_;
    double alpha_ = 1.0;
    int stage_ = 0;
    sim::Tick lastAlpha_;
    sim::Tick lastEpoch_;
    std::uint64_t cuts_ = 0;
    std::uint64_t increases_ = 0;
};

/**
 * One congested egress port: a finite FIFO queue draining at link
 * rate, with RED-style ECN marking between Kmin and Kmax.
 *
 * The queue is modelled implicitly by its busy horizon: the bytes
 * ahead of an arrival are (busyUntil - arrival) * rate. admit() never
 * suspends and draws randomness only inside the marking band, so a
 * port that stays uncongested is deterministic regardless of seed.
 *
 * Shared by the switch (lossy datagram traffic: tail-drop past the
 * queue capacity) and by RDMA flows (lossless=true: RoCE traffic
 * rides the PFC-protected priority, so it queues without bound and is
 * only ever *marked* — backpressure, not loss). A message is never
 * both marked and dropped by the same queue (property-tested): the
 * tail-drop check precedes and short-circuits the marking draw.
 */
class CongestionPoint
{
  public:
    struct Config
    {
        /** Drain rate of the port, Gbit/s. */
        double gbps = 25.0;

        /** Queue capacity in bytes (tail-drop threshold for lossy
         *  traffic). */
        std::uint64_t queueBytes = 256 * 1024;

        /** RED/ECN marking band: mark with probability 0 at kminBytes
         *  ramping to pmax at kmaxBytes, and always above kmaxBytes. */
        std::uint64_t kminBytes = 32 * 1024;
        std::uint64_t kmaxBytes = 128 * 1024;
        double pmax = 0.2;

        /** Marking-process seed (deterministic replay). */
        std::uint64_t seed = 0xecb1;
    };

    struct Verdict
    {
        /** When the frame starts transmitting (>= arrival; the gap is
         *  its queueing delay). Meaningless when dropped. */
        sim::Tick start = 0;

        /** Queue depth in bytes seen on arrival (diagnostics). */
        std::uint64_t depthBytes = 0;

        bool marked = false;
        bool dropped = false;
    };

    explicit CongestionPoint(const Config &cfg)
        : cfg_(cfg), rng_(cfg.seed)
    {
        LYNX_ASSERT(cfg_.kminBytes <= cfg_.kmaxBytes,
                    "ECN band inverted (Kmin > Kmax)");
    }

    CongestionPoint(const CongestionPoint &) = delete;
    CongestionPoint &operator=(const CongestionPoint &) = delete;

    /**
     * Admit @p bytes arriving at @p arrival. Lossy traffic that finds
     * the queue full is dropped (and does not occupy the wire);
     * @p lossless traffic always queues. Marking is judged against
     * the depth *ahead of* the arrival.
     */
    Verdict
    admit(std::uint64_t bytes, sim::Tick arrival, bool lossless = false)
    {
        Verdict v;
        v.start = std::max(arrival, busyUntil_);
        v.depthBytes = bytesIn(v.start - arrival);
        if (!lossless && v.depthBytes + bytes > cfg_.queueBytes) {
            v.dropped = true;
            ++drops_;
            return v;
        }
        if (v.depthBytes >= cfg_.kminBytes) {
            double p = 1.0;
            if (v.depthBytes < cfg_.kmaxBytes) {
                p = cfg_.pmax *
                    static_cast<double>(v.depthBytes - cfg_.kminBytes) /
                    static_cast<double>(cfg_.kmaxBytes - cfg_.kminBytes);
            }
            if (rng_.chance(p)) {
                v.marked = true;
                ++marks_;
            }
        }
        busyUntil_ = v.start + serialization(bytes);
        ++admitted_;
        return v;
    }

    /** @return serialization time of @p bytes at the port rate. */
    sim::Tick
    serialization(std::uint64_t bytes) const
    {
        return static_cast<sim::Tick>(static_cast<double>(bytes) * 8.0 /
                                      cfg_.gbps);
    }

    /** @return queued bytes implied by @p wait of queueing delay. */
    std::uint64_t
    bytesIn(sim::Tick wait) const
    {
        return static_cast<std::uint64_t>(static_cast<double>(wait) *
                                          cfg_.gbps / 8.0);
    }

    /** @return current queue depth in bytes at @p now. */
    std::uint64_t
    depthAt(sim::Tick now) const
    {
        return busyUntil_ > now ? bytesIn(busyUntil_ - now) : 0;
    }

    const Config &config() const { return cfg_; }
    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t marks() const { return marks_; }
    std::uint64_t drops() const { return drops_; }

  private:
    Config cfg_;
    sim::Rng rng_;
    sim::Tick busyUntil_ = 0;
    std::uint64_t admitted_ = 0;
    std::uint64_t marks_ = 0;
    std::uint64_t drops_ = 0;
};

/** 802.1Qbb-style PFC knobs, consumed by the SNIC mqueue layer: a
 *  full RX ring pauses the pusher (backpressure into the dispatcher /
 *  backend listeners) instead of dropping, until the accelerator
 *  drains below the resume threshold or the storm guard fires. */
struct PfcConfig
{
    bool enabled = false;

    /** Resume (XON) threshold as a fraction of the ring: a paused
     *  pusher resumes once occupancy <= xonFrac * slots. */
    double xonFrac = 0.5;

    /** How often a paused pusher re-reads the consumer register over
     *  RDMA (the pause is lifted by observed drain, not by magic). */
    sim::Tick pollInterval = sim::microseconds(2);

    /** Pause-storm guard: a pause episode longer than this breaks —
     *  the push fails over to the drop path (counted) rather than
     *  wedging the dispatcher behind a dead accelerator. */
    sim::Tick pauseTimeout = sim::microseconds(500);
};

/** Master switch + parameters of the whole congestion plane. Default
 *  constructed = everything off = seed timing, bit-identical. */
struct CongestionConfig
{
    /** Master switch: when false the Network/Nic keep their exact
     *  seed code paths (no ports, no state, no Rng draws). */
    bool enabled = false;

    /** Per-egress-port queue model (depth, rate, ECN band). The
     *  port rate defaults to the destination NIC's link rate; set
     *  `portGbps` > 0 to override (bench bottleneck shaping). */
    std::uint64_t egressQueueBytes = 256 * 1024;
    double portGbps = 0.0;

    /** RED/ECN marking (needs `enabled`). */
    bool ecnEnabled = false;
    std::uint64_t ecnKminBytes = 32 * 1024;
    std::uint64_t ecnKmaxBytes = 128 * 1024;
    double ecnPmax = 0.2;
    std::uint64_t ecnSeed = 0xecb1;

    /** DCQCN reaction at sender NICs: CE-marked deliveries generate
     *  CNPs back to the source, which paces each (source, dest) flow
     *  by a Dcqcn rate limiter. */
    bool dcqcnEnabled = false;
    DcqcnConfig dcqcn;

    /** Notification-point pacing: at most one CNP per flow per this
     *  interval (DCQCN's 50 us CNP timer). */
    sim::Tick cnpMinInterval = sim::microseconds(50);

    /** Control-path latency of a CNP back to the sender (bypasses
     *  the congested egress queues — CNPs ride the highest priority). */
    sim::Tick cnpDelay = sim::microseconds(2);

    /** PFC pause/resume on SNIC mqueue RX rings (needs `enabled`).
     *  Every Lynx Runtime whose NIC is attached to this network
     *  copies it into SnicMqueueConfig::pfc; it is their only
     *  source. */
    PfcConfig pfc;
};

} // namespace lynx::net

#endif // LYNX_NET_CONGESTION_HH
