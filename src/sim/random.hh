/**
 * @file
 * Deterministic random number generation for workloads.
 *
 * Wraps xoshiro256** (public-domain algorithm by Blackman & Vigna)
 * with the distributions the workload generators need. Every Rng is
 * explicitly seeded; nothing in the simulator draws from global
 * state, keeping runs reproducible.
 */

#ifndef LYNX_SIM_RANDOM_HH
#define LYNX_SIM_RANDOM_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "logging.hh"

namespace lynx::sim {

/** Seeded pseudo-random generator (xoshiro256**). */
class Rng
{
  public:
    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        std::uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64(x);
    }

    /** @return next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** @return uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        LYNX_ASSERT(bound > 0, "empty range");
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t threshold = -bound % bound;
        for (;;) {
            std::uint64_t r = next();
            if (r >= threshold)
                return r % bound;
        }
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        LYNX_ASSERT(lo <= hi, "inverted range");
        return lo + below(hi - lo + 1);
    }

    /** @return uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** @return true with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /**
     * @return exponentially distributed value with mean @p mean
     * (inter-arrival times of a Poisson process).
     */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard the log against u == 0.
        return -mean * std::log(1.0 - u + 1e-18);
    }

  private:
    static std::uint64_t
    splitmix64(std::uint64_t &x)
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/**
 * Zipf(s) distribution over ranks [0, n): rank k is drawn with
 * probability proportional to 1/(k+1)^s — the skewed-popularity
 * shape of real multi-tenant traffic (a few hot tenants, a long
 * cold tail). CDF precomputed at construction; each draw is one
 * uniform + a binary search, allocation-free.
 */
class ZipfDist
{
  public:
    explicit ZipfDist(std::size_t n, double s = 1.0) : cdf_(n)
    {
        LYNX_ASSERT(n > 0, "empty zipf support");
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf_[i] = sum;
        }
        for (double &c : cdf_)
            c /= sum;
    }

    /** @return a rank in [0, n). */
    std::size_t
    operator()(Rng &rng) const
    {
        double u = rng.uniform();
        auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        if (it == cdf_.end())
            return cdf_.size() - 1;
        return static_cast<std::size_t>(it - cdf_.begin());
    }

    /** @return rank @p i's probability mass (load planning). */
    double
    share(std::size_t i) const
    {
        return cdf_[i] - (i == 0 ? 0.0 : cdf_[i - 1]);
    }

    std::size_t size() const { return cdf_.size(); }

  private:
    std::vector<double> cdf_;
};

} // namespace lynx::sim

#endif // LYNX_SIM_RANDOM_HH
