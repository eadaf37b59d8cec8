#include "histogram.hh"

namespace lynx::sim {

std::size_t
Histogram::indexOf(std::uint64_t value)
{
    if (value < subBuckets)
        return static_cast<std::size_t>(value);
    // value lies in [2^h, 2^(h+1)) with h >= subBucketBits. The top
    // subBucketBits+1 bits select the linear sub-bucket.
    const int h = std::bit_width(value) - 1;
    const int shift = h - subBucketBits;
    const std::uint64_t sub = (value >> shift) - subBuckets;
    return subBuckets + static_cast<std::size_t>(shift) * subBuckets +
           static_cast<std::size_t>(sub);
}

std::uint64_t
Histogram::upperEdge(std::size_t index)
{
    if (index < subBuckets)
        return index;
    const std::size_t shift = (index - subBuckets) / subBuckets;
    const std::uint64_t sub = (index - subBuckets) % subBuckets;
    return ((subBuckets + sub + 1) << shift) - 1;
}

void
Histogram::record(std::uint64_t value)
{
    record(value, 1);
}

void
Histogram::record(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    const std::size_t idx = indexOf(value);
    if (idx >= buckets_.size())
        buckets_.resize(idx + 1, 0);
    buckets_[idx] += n;
    if (count_ == 0 || value < min_)
        min_ = value;
    if (count_ == 0 || value > max_)
        max_ = value;
    count_ += n;
    sum_ += static_cast<double>(value) * static_cast<double>(n);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.buckets_.size() > buckets_.size())
        buckets_.resize(other.buckets_.size(), 0);
    for (std::size_t i = 0; i < other.buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    if (other.count_) {
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    buckets_.assign(buckets_.size(), 0);
    count_ = 0;
    min_ = 0;
    max_ = 0;
    sum_ = 0.0;
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    // The lowest rank lands in the bucket containing min_, whose upper
    // edge can exceed the exact recorded minimum by the ~3% bucket
    // width; answer p=0 exactly and clamp everything to [min_, max_].
    if (p <= 0.0)
        return min_;
    if (p > 100.0)
        p = 100.0;
    // Rank of the requested percentile, at least 1.
    std::uint64_t rank =
        static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank) {
            std::uint64_t edge = upperEdge(i);
            return edge > max_ ? max_ : edge < min_ ? min_ : edge;
        }
    }
    return max_;
}

} // namespace lynx::sim
