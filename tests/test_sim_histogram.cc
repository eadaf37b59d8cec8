/**
 * @file
 * Unit and property tests for the log-linear histogram. The property
 * tests check percentiles against an exact sorted reference within
 * the documented ~3% quantization bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/histogram.hh"
#include "sim/random.hh"

using namespace lynx::sim;

TEST(Histogram, EmptyHistogramReportsZeros)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(50), 0u);
}

TEST(Histogram, SmallValuesAreExact)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 32; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 32u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 31u);
    // Values below 32 land in exact unit buckets.
    EXPECT_EQ(h.percentile(100), 31u);
    EXPECT_EQ(h.percentile(50), 15u);
}

TEST(Histogram, SingleValueDominatesAllPercentiles)
{
    Histogram h;
    h.record(1234567);
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0}) {
        std::uint64_t v = h.percentile(p);
        EXPECT_NEAR(static_cast<double>(v), 1234567.0, 1234567.0 * 0.04);
    }
    EXPECT_EQ(h.max(), 1234567u);
    EXPECT_EQ(h.min(), 1234567u);
}

TEST(Histogram, MeanIsExact)
{
    Histogram h;
    h.record(10);
    h.record(20);
    h.record(60);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
}

TEST(Histogram, RecordWithCountWeightsSamples)
{
    Histogram h;
    h.record(5, 99);
    h.record(1000, 1);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(50), 5u);
    EXPECT_GE(h.percentile(100), 1000u * 97 / 100);
}

TEST(Histogram, MergeCombinesSamples)
{
    Histogram a, b;
    a.record(10, 50);
    b.record(1000, 50);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_EQ(a.min(), 10u);
    EXPECT_EQ(a.max(), 1000u);
    EXPECT_EQ(a.percentile(25), 10u);
    EXPECT_NEAR(static_cast<double>(a.percentile(99)), 1000.0, 40.0);
}

/** Buckets grow to the largest sample, so histograms of different
 *  ranges merge either way round, up to the top of the 64-bit range. */
TEST(Histogram, MergeIsSymmetricAcrossRanges)
{
    const std::uint64_t top = ~0ull;
    Histogram small, large;
    small.record(3, 10);
    large.record(top, 5);
    large.record(70'000, 5);
    Histogram ab = small, ba = large;
    ab.merge(large);
    ba.merge(small);
    for (double p : {0.0, 10.0, 50.0, 75.0, 99.0, 100.0})
        EXPECT_EQ(ab.percentile(p), ba.percentile(p)) << "p" << p;
    EXPECT_EQ(ab.count(), 20u);
    EXPECT_EQ(ab.min(), 3u);
    EXPECT_EQ(ab.max(), top);
    EXPECT_EQ(ab.percentile(50), 3u);
    EXPECT_EQ(ab.percentile(100), top);
}

TEST(Histogram, ResetClearsState)
{
    Histogram h;
    h.record(42, 10);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
    h.record(7);
    EXPECT_EQ(h.min(), 7u);
}

TEST(Histogram, PercentileNeverExceedsMax)
{
    Histogram h;
    h.record(1'000'000'007ull);
    h.record(3);
    EXPECT_LE(h.percentile(100), h.max());
}

/**
 * The percentile endpoints are exact, not bucket-quantized: p0 is
 * the recorded minimum and p100 the recorded maximum, for any mix of
 * magnitudes (large values land in wide buckets whose edges can
 * otherwise under/overshoot the recorded extremes).
 */
TEST(Histogram, PercentileEndpointsAreExactMinAndMax)
{
    Histogram h;
    for (std::uint64_t v :
         {3ull, 17ull, 999ull, 65'537ull, 1'000'000'007ull}) {
        h.record(v);
        EXPECT_EQ(h.percentile(0), h.min());
        EXPECT_EQ(h.percentile(100), h.max());
    }
    EXPECT_EQ(h.percentile(0), 3u);
    EXPECT_EQ(h.percentile(100), 1'000'000'007ull);
    // Every interior percentile stays inside the recorded range.
    for (double p : {0.1, 1.0, 25.0, 50.0, 75.0, 99.0, 99.9}) {
        EXPECT_GE(h.percentile(p), h.min()) << "p=" << p;
        EXPECT_LE(h.percentile(p), h.max()) << "p=" << p;
    }
}

/** Property sweep: percentile error vs. exact reference, per seed. */
class HistogramProperty : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HistogramProperty, PercentilesMatchSortedReferenceWithin4Percent)
{
    Rng rng(GetParam());
    Histogram h;
    std::vector<std::uint64_t> ref;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        // Mix of magnitudes: latency-like distribution.
        std::uint64_t v;
        switch (rng.below(3)) {
          case 0: v = rng.between(1, 100); break;
          case 1: v = rng.between(100, 100'000); break;
          default: v = rng.between(100'000, 50'000'000); break;
        }
        h.record(v);
        ref.push_back(v);
    }
    std::sort(ref.begin(), ref.end());
    for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
        std::size_t rank = static_cast<std::size_t>(p / 100.0 * n);
        if (rank == 0)
            rank = 1;
        std::uint64_t exact = ref[rank - 1];
        std::uint64_t approx = h.percentile(p);
        EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                    static_cast<double>(exact) * 0.04 + 1.0)
            << "p=" << p;
    }
    EXPECT_EQ(h.min(), ref.front());
    EXPECT_EQ(h.max(), ref.back());
    EXPECT_EQ(h.percentile(0), ref.front());
    EXPECT_EQ(h.percentile(100), ref.back());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(7, 11, 23, 42, 1337));
