/**
 * @file
 * Tests for LBP face verification: code properties, histogram mass,
 * metric behaviour, and same/different-person separation on the
 * synthetic FERET-like dataset.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "apps/lbp.hh"
#include "sim/random.hh"
#include "workload/datagen.hh"

using namespace lynx::apps;
using lynx::workload::synthFace;

TEST(Lbp, HistogramMassEqualsPixelCount)
{
    auto img = synthFace(1, 0);
    auto hist = lbpHistogram(img, 32, 32, 4);
    EXPECT_EQ(hist.size(), 4u * 4u * 256u);
    std::uint64_t total = 0;
    for (auto h : hist)
        total += h;
    EXPECT_EQ(total, 32u * 32u);
}

TEST(Lbp, UniformImageGivesAllOnesCode)
{
    std::vector<std::uint8_t> flat(16 * 16, 100);
    auto codes = lbpCodes(flat, 16, 16);
    for (auto c : codes)
        EXPECT_EQ(c, 0xff); // every neighbour >= center
}

TEST(Lbp, DistanceToSelfIsZero)
{
    auto img = synthFace(3, 1);
    EXPECT_DOUBLE_EQ(lbpDistance(img, img, 32, 32), 0.0);
}

TEST(Lbp, ChiSquareIsSymmetric)
{
    auto a = lbpHistogram(synthFace(1, 0), 32, 32);
    auto b = lbpHistogram(synthFace(2, 0), 32, 32);
    EXPECT_DOUBLE_EQ(lbpChiSquare(a, b), lbpChiSquare(b, a));
}

TEST(Lbp, SamePersonCloserThanDifferentPerson)
{
    // The core property the Face Verification server depends on.
    int correct = 0, total = 0;
    for (std::uint32_t person = 0; person < 8; ++person) {
        double same = lbpDistance(synthFace(person, 0),
                                  synthFace(person, 1), 32, 32);
        for (std::uint32_t other = 0; other < 8; ++other) {
            if (other == person)
                continue;
            double diff = lbpDistance(synthFace(person, 0),
                                      synthFace(other, 0), 32, 32);
            correct += (same < diff);
            ++total;
        }
    }
    // Synthetic faces are crude; demand a strong majority.
    EXPECT_GT(correct, total * 3 / 4);
}

TEST(Lbp, VerifyThresholdSeparates)
{
    auto probe = synthFace(5, 3);
    auto enrolled = synthFace(5, 0);
    auto impostor = synthFace(6, 0);
    double genuine = lbpDistance(probe, enrolled, 32, 32);
    double fraud = lbpDistance(probe, impostor, 32, 32);
    EXPECT_LT(genuine, fraud);
    double threshold = (genuine + fraud) / 2;
    EXPECT_TRUE(lbpVerify(probe, enrolled, 32, 32, threshold));
    EXPECT_FALSE(lbpVerify(probe, impostor, 32, 32, threshold));
}

namespace {

/** @return the per-cell histograms of lbpCodes(), the clamped
 *  reference, binned the way lbpHistogram documents. */
std::vector<std::uint32_t>
histogramOfCodes(const std::vector<std::uint8_t> &img, int w, int h,
                 int cells)
{
    auto codes = lbpCodes(img, w, h);
    std::vector<std::uint32_t> hist(
        static_cast<std::size_t>(cells) * cells * 256, 0);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x) {
            const int cy = std::min(y * cells / h, cells - 1);
            const int cx = std::min(x * cells / w, cells - 1);
            ++hist[(static_cast<std::size_t>(cy) * cells + cx) * 256 +
                   codes[static_cast<std::size_t>(y) * w + x]];
        }
    return hist;
}

} // namespace

TEST(Lbp, HistogramMatchesClampedCodesOnEveryShape)
{
    // Shapes where the one-pixel border is all (3x3), most (4x4) or a
    // large part (16x7) of the image, and the served 32x32.
    lynx::sim::Rng rng(17);
    const std::pair<int, int> shapes[] = {{3, 3}, {4, 4}, {16, 7},
                                          {7, 16}, {32, 32}};
    for (auto [w, h] : shapes) {
        const std::size_t n = static_cast<std::size_t>(w) * h;
        std::vector<std::vector<std::uint8_t>> images;
        std::vector<std::uint8_t> noise(n), face(n);
        for (auto &px : noise)
            px = static_cast<std::uint8_t>(rng.below(256));
        // A face crop: the synthetic face's top-left w x h pixels.
        const auto full = synthFace(4, 2);
        for (int y = 0; y < h; ++y)
            for (int x = 0; x < w; ++x)
                face[static_cast<std::size_t>(y) * w + x] =
                    full[static_cast<std::size_t>(y) * 32 + x];
        images.push_back(noise);
        images.push_back(face);
        images.emplace_back(n, 0);
        images.emplace_back(n, 200);
        for (int cells = 1; cells <= std::min({4, w, h}); ++cells)
            for (std::size_t i = 0; i < images.size(); ++i)
                EXPECT_EQ(lbpHistogram(images[i], w, h, cells),
                          histogramOfCodes(images[i], w, h, cells))
                    << w << "x" << h << ", cells " << cells
                    << ", image " << i;
    }
}

namespace {

/** @return whether @p x and @p y are the same double, bit for bit. */
bool
sameBits(double x, double y)
{
    return std::memcmp(&x, &y, sizeof x) == 0;
}

/** @return a @p w x @p h crop of synthetic face @p person, tiled
 *  past its 32 x 32 pixels. */
std::vector<std::uint8_t>
faceCrop(std::uint32_t person, int w, int h)
{
    const auto full = synthFace(person, 2);
    std::vector<std::uint8_t> img(static_cast<std::size_t>(w) * h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img[static_cast<std::size_t>(y) * w + x] =
                full[static_cast<std::size_t>(y % 32) * 32 + x % 32];
    return img;
}

} // namespace

TEST(Lbp, PairDistanceBitIdenticalToDenseChiSquare)
{
    // Widths whose interior (w - 2 pixels) holds no 16-pixel run (3,
    // 4, 16, 17), exactly one (18), one and an overlapping tail (33)
    // and two and a tail (40).
    lynx::sim::Rng rng(29);
    for (int w : {3, 4, 16, 17, 18, 33, 40}) {
        for (int h = 3; h <= 32; ++h) {
            const std::size_t n = static_cast<std::size_t>(w) * h;
            std::vector<std::uint8_t> noise(n), noise2(n);
            for (auto &px : noise)
                px = static_cast<std::uint8_t>(rng.below(256));
            for (auto &px : noise2)
                px = static_cast<std::uint8_t>(rng.below(256));
            const auto face = faceCrop(4, w, h);
            const std::vector<std::uint8_t> zeros(n, 0), full(n, 255),
                flat(n, 100);
            const std::vector<LbpPair> pairs = {
                {noise, face}, {face, noise2}, {noise, noise2},
                {zeros, full}, {flat, noise},  {face, face}};
            for (int cells = 1; cells <= std::min({4, w, h}); ++cells) {
                std::vector<double> ref;
                for (const LbpPair &p : pairs) {
                    const std::vector<std::uint8_t> a(p.a.begin(),
                                                      p.a.end());
                    const std::vector<std::uint8_t> b(p.b.begin(),
                                                      p.b.end());
                    ref.push_back(
                        lbpChiSquare(histogramOfCodes(a, w, h, cells),
                                     histogramOfCodes(b, w, h, cells)));
                }
                const auto batch = lbpDistanceBatch(pairs, w, h, cells);
                ASSERT_EQ(batch.size(), pairs.size());
                for (std::size_t i = 0; i < pairs.size(); ++i) {
                    SCOPED_TRACE(::testing::Message()
                                 << w << "x" << h << ", cells " << cells
                                 << ", pair " << i);
                    EXPECT_TRUE(sameBits(
                        lbpDistance(pairs[i].a, pairs[i].b, w, h, cells),
                        ref[i]));
                    EXPECT_TRUE(sameBits(batch[i], ref[i]));
                    // Matches at the reference distance and not one ulp
                    // below it: the distance is exactly the reference.
                    const std::span<const LbpPair> one(&pairs[i], 1);
                    EXPECT_EQ(lbpVerifyBatch(one, w, h, ref[i], cells)[0],
                              1);
                    EXPECT_EQ(lbpVerifyBatch(one, w, h,
                                             std::nextafter(ref[i], -1.0),
                                             cells)[0],
                              0);
                }
            }
        }
    }
}

TEST(Lbp, ScratchReuseAcrossShapesMatchesFreshScratch)
{
    // One scratch runs a batch, a batch of another shape and grid,
    // then the first batch again: every element must equal its
    // fresh-scratch distance, so each pair left the scratch clear.
    std::vector<std::vector<std::uint8_t>> faces, small;
    for (std::uint32_t i = 0; i < 6; ++i) {
        faces.push_back(synthFace(i, i % 3));
        small.push_back(faceCrop(i, 17, 9));
    }
    std::vector<LbpPair> big, little;
    for (std::size_t i = 0; i + 1 < faces.size(); ++i) {
        big.push_back({faces[i], faces[i + 1]});
        little.push_back({small[i + 1], small[i]});
    }
    LbpScratch scratch;
    std::vector<double> out;
    auto expectFresh = [&](const std::vector<LbpPair> &pairs, int w, int h,
                           int cells) {
        lbpDistanceBatch(pairs, w, h, cells, scratch, out);
        ASSERT_EQ(out.size(), pairs.size());
        for (std::size_t i = 0; i < pairs.size(); ++i)
            EXPECT_TRUE(sameBits(
                out[i], lbpDistance(pairs[i].a, pairs[i].b, w, h, cells)))
                << w << "x" << h << ", cells " << cells << ", pair " << i;
    };
    expectFresh(big, 32, 32, 4);
    expectFresh(little, 17, 9, 3);
    expectFresh(big, 32, 32, 4);
    // The verify form on the same scratch agrees with the distances.
    std::vector<std::uint8_t> matched;
    lbpVerifyBatch(big, 32, 32, 400.0, 4, scratch, matched);
    ASSERT_EQ(matched.size(), big.size());
    for (std::size_t i = 0; i < big.size(); ++i)
        EXPECT_EQ(matched[i], lbpVerify(big[i].a, big[i].b, 32, 32, 400.0));
}

TEST(LbpDeath, SizeMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<std::uint8_t> img(10);
    EXPECT_DEATH(lbpCodes(img, 32, 32), "mismatch");
}
