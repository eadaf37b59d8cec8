/**
 * @file
 * Tests for the LeNet-5 forward pass: shape checks, softmax
 * invariants, determinism, input sensitivity, and every layer's
 * floats against plain reference loops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "apps/lenet.hh"
#include "sim/random.hh"
#include "workload/datagen.hh"

using lynx::apps::LeNet;
using lynx::apps::LeNetActivations;
using lynx::apps::LeNetParams;
using lynx::workload::synthMnist;

TEST(LeNet, SoftmaxIsAProbabilityDistribution)
{
    LeNet net;
    auto img = synthMnist(3, 0);
    auto probs = net.forward(img);
    float sum = 0;
    for (float p : probs) {
        EXPECT_GE(p, 0.0f);
        EXPECT_LE(p, 1.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(LeNet, DeterministicForSameSeedAndInput)
{
    LeNet a(42), b(42);
    auto img = synthMnist(7, 5);
    auto pa = a.forward(img);
    auto pb = b.forward(img);
    for (int i = 0; i < LeNet::numClasses; ++i)
        EXPECT_FLOAT_EQ(pa[i], pb[i]);
}

TEST(LeNet, DifferentSeedsGiveDifferentNetworks)
{
    LeNet a(1), b(2);
    auto img = synthMnist(0, 0);
    auto pa = a.forward(img);
    auto pb = b.forward(img);
    bool anyDiff = false;
    for (int i = 0; i < LeNet::numClasses; ++i)
        anyDiff |= std::abs(pa[i] - pb[i]) > 1e-6f;
    EXPECT_TRUE(anyDiff);
}

TEST(LeNet, ClassifyReturnsArgmaxInRange)
{
    LeNet net;
    for (int d = 0; d < 10; ++d) {
        auto img = synthMnist(d, 1);
        int cls = net.classify(img);
        EXPECT_GE(cls, 0);
        EXPECT_LT(cls, 10);
        auto probs = net.forward(img);
        for (float p : probs)
            EXPECT_LE(p, probs[static_cast<std::size_t>(cls)] + 1e-7f);
    }
}

TEST(LeNet, OutputDependsOnInput)
{
    LeNet net;
    std::set<int> classes;
    bool outputsDiffer = false;
    auto ref = net.forward(synthMnist(0, 0));
    for (int d = 0; d < 10; ++d) {
        auto p = net.forward(synthMnist(d, 0));
        classes.insert(net.classify(synthMnist(d, 0)));
        for (int i = 0; i < 10; ++i)
            outputsDiffer |= std::abs(p[i] - ref[i]) > 1e-6f;
    }
    EXPECT_TRUE(outputsDiffer);
    // An untrained (random-weight) net still separates some inputs.
    EXPECT_GE(classes.size(), 2u);
}

TEST(LeNet, BlankAndFullImagesProduceFiniteOutputs)
{
    LeNet net;
    std::vector<std::uint8_t> blank(LeNet::imageBytes, 0);
    std::vector<std::uint8_t> full(LeNet::imageBytes, 255);
    for (auto &img : {blank, full}) {
        auto p = net.forward(img);
        for (float v : p)
            EXPECT_TRUE(std::isfinite(v));
    }
}

/*
 * ----- The kernels against plain loops -----
 *
 * The reference is the forward pass written as plain nested loops,
 * one output at a time: the bias, then every in-range tap in
 * input-channel, kernel-row, kernel-column order (a dense layer:
 * ascending input index). The kernels must give the very same floats
 * on any host, so the comparison is bit for bit against this code
 * built with the same flags, never against recorded digests (tanhf
 * and expf bits may differ between libm versions).
 */

namespace {

namespace reference {

void
conv2d(const std::vector<float> &in, int inCh, int inDim,
       const std::vector<float> &w, const std::vector<float> &b,
       int outCh, int k, int pad, std::vector<float> &out)
{
    const int outDim = inDim + 2 * pad - k + 1;
    out.assign(static_cast<std::size_t>(outCh) * outDim * outDim, 0.0f);
    for (int oc = 0; oc < outCh; ++oc) {
        for (int oy = 0; oy < outDim; ++oy) {
            for (int ox = 0; ox < outDim; ++ox) {
                float acc = b[static_cast<std::size_t>(oc)];
                for (int ic = 0; ic < inCh; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - pad;
                        if (iy < 0 || iy >= inDim)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - pad;
                            if (ix < 0 || ix >= inDim)
                                continue;
                            acc += in[static_cast<std::size_t>(
                                       (ic * inDim + iy) * inDim + ix)] *
                                   w[static_cast<std::size_t>(
                                       ((oc * inCh + ic) * k + ky) * k +
                                       kx)];
                        }
                    }
                }
                out[static_cast<std::size_t>(
                    (oc * outDim + oy) * outDim + ox)] = std::tanh(acc);
            }
        }
    }
}

void
avgPool2(const std::vector<float> &in, int ch, int dim,
         std::vector<float> &out)
{
    const int outDim = dim / 2;
    out.assign(static_cast<std::size_t>(ch) * outDim * outDim, 0.0f);
    auto at = [&](int c, int y, int x) {
        return in[static_cast<std::size_t>((c * dim + y) * dim + x)];
    };
    for (int c = 0; c < ch; ++c)
        for (int y = 0; y < outDim; ++y)
            for (int x = 0; x < outDim; ++x)
                out[static_cast<std::size_t>(
                    (c * outDim + y) * outDim + x)] =
                    (at(c, 2 * y, 2 * x) + at(c, 2 * y, 2 * x + 1) +
                     at(c, 2 * y + 1, 2 * x) +
                     at(c, 2 * y + 1, 2 * x + 1)) *
                    0.25f;
}

void
dense(const std::vector<float> &in, const std::vector<float> &w,
      const std::vector<float> &b, int outN, bool activate,
      std::vector<float> &out)
{
    const std::size_t inN = in.size();
    out.assign(static_cast<std::size_t>(outN), 0.0f);
    for (int o = 0; o < outN; ++o) {
        float acc = b[static_cast<std::size_t>(o)];
        for (std::size_t i = 0; i < inN; ++i)
            acc += in[i] * w[static_cast<std::size_t>(o) * inN + i];
        out[static_cast<std::size_t>(o)] =
            activate ? std::tanh(acc) : acc;
    }
}

/** The whole forward pass over parameters in their [out][in] layout. */
LeNetActivations
forward(const LeNetParams &p, const std::vector<std::uint8_t> &image)
{
    LeNetActivations a;
    for (std::uint8_t px : image)
        a.x.push_back(static_cast<float>(px) / 255.0f - 0.5f);
    conv2d(a.x, 1, 28, p.conv1W, p.conv1B, 6, 5, 2, a.c1);
    avgPool2(a.c1, 6, 28, a.p1);
    conv2d(a.p1, 6, 14, p.conv2W, p.conv2B, 16, 5, 0, a.c2);
    avgPool2(a.c2, 16, 10, a.p2);
    dense(a.p2, p.fc1W, p.fc1B, 120, true, a.f1);
    dense(a.f1, p.fc2W, p.fc2B, 84, true, a.f2);
    dense(a.f2, p.fc3W, p.fc3B, 10, false, a.logits);
    const float mx = *std::max_element(a.logits.begin(), a.logits.end());
    float sum = 0.0f;
    for (float l : a.logits) {
        a.probs.push_back(std::exp(l - mx));
        sum += a.probs.back();
    }
    for (auto &q : a.probs)
        q /= sum;
    return a;
}

} // namespace reference

/** @return whether @p a and @p b hold the same float bits. */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

} // namespace

TEST(LeNetKernels, EveryLayerBitIdenticalToPlainLoops)
{
    std::vector<std::vector<std::uint8_t>> images;
    for (std::uint64_t variant : {0u, 7u, 1234u})
        for (int d = 0; d < 10; ++d)
            images.push_back(synthMnist(d, variant));
    lynx::sim::Rng rng(99);
    for (int n = 0; n < 4; ++n) {
        std::vector<std::uint8_t> noise(LeNet::imageBytes);
        for (auto &px : noise)
            px = static_cast<std::uint8_t>(rng.below(256));
        images.push_back(std::move(noise));
    }
    images.emplace_back(LeNet::imageBytes, 0);
    images.emplace_back(LeNet::imageBytes, 255);

    for (std::uint64_t seed : {0x1e4e7ull, 3ull}) {
        const LeNetParams params = LeNetParams::random(seed);
        const LeNet net(params);
        LeNetActivations got;
        for (std::size_t i = 0; i < images.size(); ++i) {
            const LeNetActivations want =
                reference::forward(params, images[i]);
            net.forwardInto(images[i], got);
            const std::pair<const char *,
                            std::vector<float> LeNetActivations::*>
                layers[] = {{"c1", &LeNetActivations::c1},
                            {"p1", &LeNetActivations::p1},
                            {"c2", &LeNetActivations::c2},
                            {"p2", &LeNetActivations::p2},
                            {"f1", &LeNetActivations::f1},
                            {"f2", &LeNetActivations::f2},
                            {"logits", &LeNetActivations::logits},
                            {"probs", &LeNetActivations::probs}};
            for (const auto &[name, layer] : layers)
                EXPECT_TRUE(sameBits(got.*layer, want.*layer))
                    << name << ", image " << i << ", seed " << seed;
            const auto probs = net.forward(images[i]);
            EXPECT_TRUE(sameBits({probs.begin(), probs.end()},
                                 want.probs))
                << "forward(), image " << i << ", seed " << seed;
        }
    }
}

TEST(LeNetDeath, WrongImageSizePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LeNet net;
    std::vector<std::uint8_t> tiny(10, 0);
    EXPECT_DEATH(net.forward(tiny), "28x28");
}

#include "apps/lenet_train.hh"

using lynx::apps::LenetExample;
using lynx::apps::LeNetTrainer;
using lynx::apps::synthTrainingSet;

TEST(LeNetTrain, SyntheticSetHasAllDigits)
{
    auto set = synthTrainingSet(5, 0);
    ASSERT_EQ(set.size(), 50u);
    int counts[10] = {};
    for (const auto &ex : set) {
        ASSERT_GE(ex.label, 0);
        ASSERT_LT(ex.label, 10);
        ASSERT_EQ(ex.image.size(), 784u);
        ++counts[ex.label];
    }
    for (int d = 0; d < 10; ++d)
        EXPECT_EQ(counts[d], 5);
}

TEST(LeNetTrain, SingleStepReducesBatchLoss)
{
    auto data = synthTrainingSet(2, 0);
    LeNetTrainer t(3);
    double l0 = t.step(data, 0.05f);
    // Re-evaluating the same batch: loss must have dropped.
    double l1 = t.step(data, 0.05f);
    EXPECT_LT(l1, l0);
}

TEST(LeNetTrain, GradientMatchesFiniteDifference)
{
    // Spot-check backprop against a numerical derivative of the
    // loss w.r.t. one fc3 weight and one conv1 weight.
    auto data = synthTrainingSet(1, 0);
    std::vector<LenetExample> one{data[3]};

    auto lossAt = [&](const lynx::apps::LeNetParams &p) {
        LeNetTrainer probe(p);
        // A zero-lr step returns the batch loss without changing p.
        return probe.step(one, 0.0f);
    };

    lynx::apps::LeNetParams base =
        lynx::apps::LeNetParams::random(11);
    const float eps = 5e-3f;
    for (auto which : {0, 1}) {
        // Analytic gradient recovered from one SGD step: after a step
        // with learning rate lr, w' = w - lr * g => g = (w - w') / lr.
        // lr must be large enough that the float update survives
        // rounding against |w| ~ 0.1.
        LeNetTrainer t(base);
        const float lr = 2e-3f;
        t.step(one, lr);
        float before = which == 0 ? base.fc3W[5] : base.conv1W[7];
        float after =
            which == 0 ? t.params().fc3W[5] : t.params().conv1W[7];
        double analytic = (before - after) / lr;

        lynx::apps::LeNetParams plus = base, minus = base;
        (which == 0 ? plus.fc3W[5] : plus.conv1W[7]) += eps;
        (which == 0 ? minus.fc3W[5] : minus.conv1W[7]) -= eps;
        double numeric = (lossAt(plus) - lossAt(minus)) / (2.0 * eps);
        EXPECT_NEAR(analytic, numeric,
                    std::max(0.1 * std::abs(numeric), 2e-2))
            << "param set " << which;
    }
}

TEST(LeNetTrain, ReachesHighHeldOutAccuracy)
{
    auto train = synthTrainingSet(30, 0);
    auto test = synthTrainingSet(8, 100); // unseen variants
    LeNetTrainer t(7);
    double before = t.accuracy(test);
    t.train(train, 3, 16, 0.08f, 1);
    double after = t.accuracy(test);
    EXPECT_LT(before, 0.4);
    EXPECT_GT(after, 0.9);
}

TEST(LeNetTrain, TrainedParamsLoadIntoInferenceNet)
{
    auto train = synthTrainingSet(20, 0);
    LeNetTrainer t(7);
    t.train(train, 2, 16, 0.08f, 1);
    lynx::apps::LeNet net(t.params());
    auto img = lynx::workload::synthMnist(4, 55);
    EXPECT_EQ(net.classify(img), 4);
}
