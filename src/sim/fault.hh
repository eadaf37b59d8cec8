/**
 * @file
 * Seeded, deterministic fault injection for link and RDMA transfers.
 *
 * A FaultPlan is a stochastic adversary shared by the network fabric
 * (net::Network) and the RDMA queue pairs (rdma::QueuePair). Each
 * transfer is judged once per transmission attempt and can be
 * dropped, corrupted, or delayed; scheduled partitions make every
 * transfer between two nodes fail for a time window and then heal.
 *
 * Determinism: all randomness comes from one seeded Rng, and the
 * simulator's event calendar is itself deterministic, so a given
 * (scenario, FaultConfig) replays bit-identically — the property the
 * chaos suite relies on to sweep seeds. Delayed transfers overtake
 * later undelayed ones, so `delayRate` doubles as the reordering
 * fault: per-(src,dst) FIFO delivery only holds when latency is
 * uniform.
 *
 * A plan whose rates are all zero and whose partition schedule is
 * empty reports enabled() == false, and every consumer short-circuits
 * before drawing randomness — attaching such a plan leaves timing
 * bit-identical to not attaching one (the golden-timestamp
 * discipline).
 */

#ifndef LYNX_SIM_FAULT_HH
#define LYNX_SIM_FAULT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "logging.hh"
#include "random.hh"
#include "stats.hh"
#include "time.hh"

namespace lynx::sim {

/** Per-transfer fault probabilities and delay bounds. */
struct FaultConfig
{
    /** Probability a transfer attempt is silently lost. */
    double dropRate = 0.0;

    /** Probability a transfer attempt has payload bytes flipped in
     *  flight. Receivers detect this via frame/ICRC checksums, so
     *  corruption surfaces as drops and retransmits — never as a
     *  corrupt payload delivered upward. */
    double corruptRate = 0.0;

    /** Probability a transfer is held back by a uniform random delay
     *  in [delayMin, delayMax] (doubles as reordering). */
    double delayRate = 0.0;
    Tick delayMin = microseconds(5);
    Tick delayMax = microseconds(80);

    /** Seed of the fault process (deterministic replay). */
    std::uint64_t seed = 0xfa0175;
};

/** Deterministic fault adversary for link/RDMA transfers. */
class FaultPlan
{
  public:
    /** Wildcard node id: a partition endpoint matching any node. */
    static constexpr std::uint32_t kAnyNode = 0xffffffffu;

    explicit FaultPlan(FaultConfig cfg = {})
        : cfg_(cfg), rng_(cfg.seed),
          cPartitionDrops_(&stats_.counter("partition_drops")),
          cDrops_(&stats_.counter("drops")),
          cCorruptions_(&stats_.counter("corruptions")),
          cDelays_(&stats_.counter("delays"))
    {}

    FaultPlan(const FaultPlan &) = delete;
    FaultPlan &operator=(const FaultPlan &) = delete;

    /** What happens to one transfer attempt. */
    struct Verdict
    {
        bool drop = false;
        bool corrupt = false;
        Tick delay = 0;
    };

    /** @return whether any fault could ever fire. Consumers check
     *  this before judge() so an all-zero plan costs nothing and
     *  draws no randomness (timing stays bit-identical). */
    bool
    enabled() const
    {
        return cfg_.dropRate > 0.0 || cfg_.corruptRate > 0.0 ||
               cfg_.delayRate > 0.0 || !partitions_.empty();
    }

    /** Current fault rates. */
    const FaultConfig &config() const { return cfg_; }

    /** Replace the stochastic rates (the Rng stream continues; used
     *  by convergence tests to heal a lossy phase mid-run). */
    void setConfig(const FaultConfig &cfg) { cfg_ = cfg; }

    /** Zero every rate and forget the partition schedule: the fabric
     *  is healthy from now on. */
    void
    heal()
    {
        cfg_.dropRate = 0.0;
        cfg_.corruptRate = 0.0;
        cfg_.delayRate = 0.0;
        partitions_.clear();
    }

    /**
     * Schedule a bidirectional partition between nodes @p a and @p b
     * (kAnyNode matches every node) for sim-time [@p from, @p until):
     * every transfer attempt between them in the window is dropped.
     */
    void
    partition(std::uint32_t a, std::uint32_t b, Tick from, Tick until)
    {
        LYNX_ASSERT(from < until, "empty partition window");
        partitions_.push_back(Partition{a, b, from, until});
    }

    /** @return whether (src, dst) is partitioned at time @p now. */
    bool
    partitioned(std::uint32_t src, std::uint32_t dst, Tick now) const
    {
        for (const Partition &p : partitions_) {
            if (now < p.from || now >= p.until)
                continue;
            bool fwd = matches(p.a, src) && matches(p.b, dst);
            bool rev = matches(p.a, dst) && matches(p.b, src);
            if (fwd || rev)
                return true;
        }
        return false;
    }

    /**
     * Judge one transfer attempt from @p src to @p dst at time
     * @p now. Draws from the seeded Rng (call order is deterministic
     * because the simulator is).
     */
    Verdict
    judge(std::uint32_t src, std::uint32_t dst, Tick now)
    {
        Verdict v;
        if (partitioned(src, dst, now)) {
            v.drop = true;
            cPartitionDrops_->add();
            return v;
        }
        if (cfg_.dropRate > 0.0 && rng_.chance(cfg_.dropRate)) {
            v.drop = true;
            cDrops_->add();
            return v;
        }
        if (cfg_.corruptRate > 0.0 && rng_.chance(cfg_.corruptRate)) {
            v.corrupt = true;
            cCorruptions_->add();
        }
        if (cfg_.delayRate > 0.0 && rng_.chance(cfg_.delayRate)) {
            v.delay = static_cast<Tick>(rng_.between(
                static_cast<std::uint64_t>(cfg_.delayMin),
                static_cast<std::uint64_t>(cfg_.delayMax)));
            cDelays_->add();
        }
        return v;
    }

    /** Flip 1–4 random bytes of @p data in place (deterministic, from
     *  the plan's Rng; XOR with a non-zero mask guarantees a change). */
    void
    corruptInPlace(std::span<std::uint8_t> data)
    {
        if (data.empty())
            return;
        std::uint64_t flips = 1 + rng_.below(4);
        for (std::uint64_t i = 0; i < flips; ++i) {
            std::uint64_t pos = rng_.below(data.size());
            data[pos] ^= static_cast<std::uint8_t>(1 + rng_.below(255));
        }
    }

    /** Injection counters (drops / corruptions / delays /
     *  partition_drops). */
    sim::StatSet &stats() { return stats_; }

  private:
    struct Partition
    {
        std::uint32_t a;
        std::uint32_t b;
        Tick from;
        Tick until;
    };

    static bool
    matches(std::uint32_t pattern, std::uint32_t node)
    {
        return pattern == kAnyNode || pattern == node;
    }

    FaultConfig cfg_;
    Rng rng_;
    std::vector<Partition> partitions_;
    StatSet stats_;

    /** Per-judged-transfer counters, resolved once at
     *  construction (declared after stats_). */
    Counter *cPartitionDrops_;
    Counter *cDrops_;
    Counter *cCorruptions_;
    Counter *cDelays_;
};

} // namespace lynx::sim

#endif // LYNX_SIM_FAULT_HH
