/**
 * @file
 * HDR-style log-linear histogram for latency recording.
 *
 * Values are bucketed into powers of two, each split into 32 linear
 * sub-buckets, giving a worst-case quantization error of ~3% across
 * the full 64-bit range. Buckets are allocated up to the largest
 * sample seen, so a histogram of small values (batch sizes) costs a
 * few hundred bytes and one of latencies a few KiB. This is the
 * same recording approach high-resolution latency tools (HdrHistogram,
 * sockperf) use, and it lets benchmarks report p50/p90/p99 over
 * millions of samples without storing them.
 */

#ifndef LYNX_SIM_HISTOGRAM_HH
#define LYNX_SIM_HISTOGRAM_HH

#include <bit>
#include <cstdint>
#include <vector>

namespace lynx::sim {

/** Log-linear histogram of non-negative 64-bit samples. */
class Histogram
{
  public:
    /** Add one sample. */
    void record(std::uint64_t value);

    /** Add @p n identical samples. */
    void record(std::uint64_t value, std::uint64_t n);

    /** Merge the samples of @p other into this histogram. */
    void merge(const Histogram &other);

    /** Remove all samples. */
    void reset();

    /** @return number of recorded samples. */
    std::uint64_t count() const { return count_; }

    /** @return exact smallest recorded sample (0 when empty). */
    std::uint64_t min() const { return count_ ? min_ : 0; }

    /** @return exact largest recorded sample (0 when empty). */
    std::uint64_t max() const { return count_ ? max_ : 0; }

    /** @return exact arithmetic mean (0 when empty). */
    double mean() const;

    /** @return sum of recorded samples (exact while below 2^53). */
    double sum() const { return sum_; }

    /**
     * @return value at percentile @p p in [0, 100]; an upper bound of
     * the bucket containing that rank, clamped to the exact recorded
     * [min(), max()] range so percentile(0) == min() and
     * percentile(100) == max() (0 when empty).
     */
    std::uint64_t percentile(double p) const;

    /** Shorthand for percentile(50). */
    std::uint64_t median() const { return percentile(50.0); }

  private:
    static constexpr int subBucketBits = 5;
    static constexpr std::uint64_t subBuckets = 1ull << subBucketBits;

    /** Map @p value to its bucket index. */
    static std::size_t indexOf(std::uint64_t value);

    /** @return the largest value mapping to bucket @p index. */
    static std::uint64_t upperEdge(std::size_t index);

    /** Counts of buckets 0..size()-1; higher buckets are empty. */
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace lynx::sim

#endif // LYNX_SIM_HISTOGRAM_HH
