#include "lenet.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace lynx::apps {

namespace {

/** Fill @p w with small deterministic pseudo-random weights. */
void
initWeights(std::vector<float> &w, std::size_t n, sim::Rng &rng,
            double scale)
{
    w.resize(n);
    for (auto &x : w)
        x = static_cast<float>((rng.uniform() * 2.0 - 1.0) * scale);
}

// The layer kernels. Each writes into a caller-owned buffer and
// computes four outputs at a time along a contiguous output run (a
// conv output row, a dense layer's outputs). Every output keeps its
// own accumulation order, the bias then each tap in turn, because a
// lane is one output: only the outputs are computed side by side.

/** Four floats: one SSE register on x86-64, one NEON register on
 *  aarch64. Arithmetic on it is lane-wise IEEE single precision. */
typedef float F4 __attribute__((vector_size(16)));

F4
load4(const float *p)
{
    F4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** acc[i] += x[i] * w for i < n: one multiply and one add per output,
 *  as the scalar statement does (the build keeps them unfused). */
void
axpy(float *acc, const float *x, float w, int n)
{
    int i = 0;
    for (; i + 4 <= n; i += 4) {
        const F4 v = load4(acc + i) + load4(x + i) * w;
        std::memcpy(acc + i, &v, sizeof v);
    }
    for (; i < n; ++i)
        acc[i] += x[i] * w;
}

constexpr int kMaxRow = LeNet::imageDim;

/**
 * out[oc][oy][ox] = tanh(b[oc] + the sum over ic, ky, kx of
 * in[ic][oy+ky-pad][ox+kx-pad] * w[oc][ic][ky][kx]), taps outside the
 * input skipped. Each tap adds to the run of outputs it reaches.
 */
void
conv2dTanh(const float *in, int inCh, int inDim, const float *w,
           const float *b, int outCh, int k, int pad, float *out)
{
    const int outDim = inDim + 2 * pad - k + 1;
    LYNX_ASSERT(outDim <= kMaxRow, "conv output row too wide");
    float acc[kMaxRow];
    for (int oc = 0; oc < outCh; ++oc) {
        for (int oy = 0; oy < outDim; ++oy) {
            std::fill(acc, acc + outDim, b[oc]);
            for (int ic = 0; ic < inCh; ++ic) {
                for (int ky = 0; ky < k; ++ky) {
                    const int iy = oy + ky - pad;
                    if (iy < 0 || iy >= inDim)
                        continue;
                    const float *row = in + (ic * inDim + iy) * inDim;
                    const float *wk = w + ((oc * inCh + ic) * k + ky) * k;
                    for (int kx = 0; kx < k; ++kx) {
                        // ix = ox + kx - pad stays in [0, inDim).
                        const int lo = std::max(0, pad - kx);
                        const int hi = std::min(outDim, inDim + pad - kx);
                        axpy(acc + lo, row + lo + kx - pad, wk[kx],
                             hi - lo);
                    }
                }
            }
            float *o = out + (oc * outDim + oy) * outDim;
            for (int ox = 0; ox < outDim; ++ox)
                o[ox] = std::tanh(acc[ox]); // tanh, as in classic LeNet
        }
    }
}

void
avgPool2(const float *in, int ch, int dim, float *out)
{
    const int outDim = dim / 2;
    for (int c = 0; c < ch; ++c) {
        for (int y = 0; y < outDim; ++y) {
            const float *r0 = in + (c * dim + 2 * y) * dim;
            const float *r1 = r0 + dim;
            float *o = out + (c * outDim + y) * outDim;
            for (int x = 0; x < outDim; ++x)
                o[x] = (r0[2 * x] + r0[2 * x + 1] + r1[2 * x] +
                        r1[2 * x + 1]) *
                       0.25f;
        }
    }
}

/** out[o] = b[o] + the sum over ascending i of in[i] * wT[i][o],
 *  then tanh if @p activate. */
void
dense(const float *in, int inN, const float *wT, const float *b,
      int outN, bool activate, float *out)
{
    std::copy(b, b + outN, out);
    for (int i = 0; i < inN; ++i)
        axpy(out, wT + static_cast<std::size_t>(i) * outN, in[i], outN);
    if (activate)
        for (int o = 0; o < outN; ++o)
            out[o] = std::tanh(out[o]);
}

/** @return @p w ([out][in]) transposed to [in][out]. */
std::vector<float>
transposed(const std::vector<float> &w, std::size_t outN)
{
    const std::size_t inN = w.size() / outN;
    std::vector<float> t(w.size());
    for (std::size_t o = 0; o < outN; ++o)
        for (std::size_t i = 0; i < inN; ++i)
            t[i * outN + o] = w[o * inN + i];
    return t;
}

} // namespace

LeNetParams
LeNetParams::random(std::uint64_t seed)
{
    LeNetParams p;
    sim::Rng rng(seed);
    initWeights(p.conv1W, 6 * 1 * 5 * 5, rng, 0.35);
    initWeights(p.conv1B, 6, rng, 0.1);
    initWeights(p.conv2W, 16 * 6 * 5 * 5, rng, 0.2);
    initWeights(p.conv2B, 16, rng, 0.1);
    initWeights(p.fc1W, 120 * 400, rng, 0.08);
    initWeights(p.fc1B, 120, rng, 0.05);
    initWeights(p.fc2W, 84 * 120, rng, 0.1);
    initWeights(p.fc2B, 84, rng, 0.05);
    initWeights(p.fc3W, 10 * 84, rng, 0.15);
    initWeights(p.fc3B, 10, rng, 0.05);
    return p;
}

LeNet::LeNet(std::uint64_t seed) : LeNet(LeNetParams::random(seed)) {}

LeNet::LeNet(LeNetParams params) : params_(std::move(params))
{
    params_.fc1W = transposed(params_.fc1W, params_.fc1B.size());
    params_.fc2W = transposed(params_.fc2W, params_.fc2B.size());
    params_.fc3W = transposed(params_.fc3W, params_.fc3B.size());
}

void
LeNet::forwardInto(std::span<const std::uint8_t> image,
                   LeNetActivations &a) const
{
    LYNX_ASSERT(image.size() == imageBytes,
                "LeNet expects a 28x28 grayscale image, got ",
                image.size(), " bytes");
    a.x.resize(imageBytes);
    for (int i = 0; i < imageBytes; ++i)
        a.x[static_cast<std::size_t>(i)] =
            static_cast<float>(image[static_cast<std::size_t>(i)]) /
                255.0f -
            0.5f;
    a.c1.resize(6 * 28 * 28);
    a.p1.resize(6 * 14 * 14);
    a.c2.resize(16 * 10 * 10);
    a.p2.resize(16 * 5 * 5);
    a.f1.resize(120);
    a.f2.resize(84);
    a.logits.resize(numClasses);
    a.probs.resize(numClasses);

    const LeNetParams &p = params_;
    conv2dTanh(a.x.data(), 1, 28, p.conv1W.data(), p.conv1B.data(), 6, 5,
               2, a.c1.data());
    avgPool2(a.c1.data(), 6, 28, a.p1.data());
    conv2dTanh(a.p1.data(), 6, 14, p.conv2W.data(), p.conv2B.data(), 16,
               5, 0, a.c2.data());
    avgPool2(a.c2.data(), 16, 10, a.p2.data());
    dense(a.p2.data(), 400, p.fc1W.data(), p.fc1B.data(), 120, true,
          a.f1.data());
    dense(a.f1.data(), 120, p.fc2W.data(), p.fc2B.data(), 84, true,
          a.f2.data());
    dense(a.f2.data(), 84, p.fc3W.data(), p.fc3B.data(), numClasses,
          false, a.logits.data());

    // Softmax.
    const float mx = *std::max_element(a.logits.begin(), a.logits.end());
    float sum = 0.0f;
    for (int i = 0; i < numClasses; ++i) {
        a.probs[static_cast<std::size_t>(i)] =
            std::exp(a.logits[static_cast<std::size_t>(i)] - mx);
        sum += a.probs[static_cast<std::size_t>(i)];
    }
    for (auto &pr : a.probs)
        pr /= sum;
}

std::array<float, LeNet::numClasses>
LeNet::forward(std::span<const std::uint8_t> image) const
{
    LeNetActivations a;
    forwardInto(image, a);
    std::array<float, numClasses> probs{};
    std::copy(a.probs.begin(), a.probs.end(), probs.begin());
    return probs;
}

int
LeNet::classify(std::span<const std::uint8_t> image) const
{
    auto probs = forward(image);
    return static_cast<int>(
        std::max_element(probs.begin(), probs.end()) - probs.begin());
}

std::vector<std::array<float, LeNet::numClasses>>
LeNet::forwardBatch(
    std::span<const std::span<const std::uint8_t>> images) const
{
    std::vector<std::array<float, numClasses>> out(images.size());
    LeNetActivations a;
    for (std::size_t i = 0; i < images.size(); ++i) {
        forwardInto(images[i], a);
        std::copy(a.probs.begin(), a.probs.end(), out[i].begin());
    }
    return out;
}

std::vector<int>
LeNet::classifyBatch(
    std::span<const std::span<const std::uint8_t>> images) const
{
    auto probs = forwardBatch(images);
    std::vector<int> digits(probs.size());
    for (std::size_t i = 0; i < probs.size(); ++i)
        digits[i] = static_cast<int>(
            std::max_element(probs[i].begin(), probs[i].end()) -
            probs[i].begin());
    return digits;
}

} // namespace lynx::apps
