#include "lenet_train.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/datagen.hh"

namespace lynx::apps {

namespace {

/** Zero-filled gradient buffers shaped like @p p. */
LeNetParams
zerosLike(const LeNetParams &p)
{
    LeNetParams g;
    g.conv1W.assign(p.conv1W.size(), 0.0f);
    g.conv1B.assign(p.conv1B.size(), 0.0f);
    g.conv2W.assign(p.conv2W.size(), 0.0f);
    g.conv2B.assign(p.conv2B.size(), 0.0f);
    g.fc1W.assign(p.fc1W.size(), 0.0f);
    g.fc1B.assign(p.fc1B.size(), 0.0f);
    g.fc2W.assign(p.fc2W.size(), 0.0f);
    g.fc2B.assign(p.fc2B.size(), 0.0f);
    g.fc3W.assign(p.fc3W.size(), 0.0f);
    g.fc3B.assign(p.fc3B.size(), 0.0f);
    return g;
}

void
axpy(std::vector<float> &x, const std::vector<float> &g, float a)
{
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] += a * g[i];
}

/**
 * Backward through conv+tanh: given d(out) and the activated out,
 * accumulate dW/dB and produce d(in).
 */
void
convBackward(const std::vector<float> &in, int inCh, int inDim,
             const std::vector<float> &w, int outCh, int k, int pad,
             const std::vector<float> &out,
             const std::vector<float> &dOut, std::vector<float> &dW,
             std::vector<float> &dB, std::vector<float> &dIn)
{
    const int outDim = inDim + 2 * pad - k + 1;
    dIn.assign(in.size(), 0.0f);
    for (int oc = 0; oc < outCh; ++oc) {
        for (int oy = 0; oy < outDim; ++oy) {
            for (int ox = 0; ox < outDim; ++ox) {
                const std::size_t oi = static_cast<std::size_t>(
                    (oc * outDim + oy) * outDim + ox);
                const float a = out[oi];
                const float dz = dOut[oi] * (1.0f - a * a);
                if (dz == 0.0f)
                    continue;
                dB[static_cast<std::size_t>(oc)] += dz;
                for (int ic = 0; ic < inCh; ++ic) {
                    for (int ky = 0; ky < k; ++ky) {
                        const int iy = oy + ky - pad;
                        if (iy < 0 || iy >= inDim)
                            continue;
                        for (int kx = 0; kx < k; ++kx) {
                            const int ix = ox + kx - pad;
                            if (ix < 0 || ix >= inDim)
                                continue;
                            const std::size_t ii =
                                static_cast<std::size_t>(
                                    (ic * inDim + iy) * inDim + ix);
                            const std::size_t wi =
                                static_cast<std::size_t>(
                                    ((oc * inCh + ic) * k + ky) * k +
                                    kx);
                            dW[wi] += dz * in[ii];
                            dIn[ii] += dz * w[wi];
                        }
                    }
                }
            }
        }
    }
}

void
poolBackward(int ch, int dim, const std::vector<float> &dOut,
             std::vector<float> &dIn)
{
    const int outDim = dim / 2;
    dIn.assign(static_cast<std::size_t>(ch) * dim * dim, 0.0f);
    for (int c = 0; c < ch; ++c)
        for (int y = 0; y < outDim; ++y)
            for (int x = 0; x < outDim; ++x) {
                const float g =
                    dOut[static_cast<std::size_t>(
                        (c * outDim + y) * outDim + x)] *
                    0.25f;
                for (int dy = 0; dy < 2; ++dy)
                    for (int dx = 0; dx < 2; ++dx)
                        dIn[static_cast<std::size_t>(
                            (c * dim + 2 * y + dy) * dim + 2 * x +
                            dx)] = g;
            }
}

/**
 * Backward through dense: @p dOut is d(activation); when the layer
 * had tanh, @p activated must be the activated output (else pass
 * nullptr for a linear layer, in which case dOut is d(z) directly).
 */
void
denseBackward(const std::vector<float> &in, const std::vector<float> &w,
              const std::vector<float> *activated,
              const std::vector<float> &dOut, std::vector<float> &dW,
              std::vector<float> &dB, std::vector<float> &dIn)
{
    const std::size_t inN = in.size();
    const std::size_t outN = dOut.size();
    dIn.assign(inN, 0.0f);
    for (std::size_t o = 0; o < outN; ++o) {
        float dz = dOut[o];
        if (activated) {
            const float a = (*activated)[o];
            dz *= (1.0f - a * a);
        }
        dB[o] += dz;
        for (std::size_t i = 0; i < inN; ++i) {
            dW[o * inN + i] += dz * in[i];
            dIn[i] += dz * w[o * inN + i];
        }
    }
}

} // namespace

double
LeNetTrainer::backprop(const LeNet &net, const LenetExample &ex,
                       LeNetActivations &a, LeNetParams &g) const
{
    LYNX_ASSERT(ex.label >= 0 && ex.label < 10, "bad training example");
    const LeNetParams &p = params_;

    // ---- forward, keeping every layer's output ----
    net.forwardInto(ex.image, a);
    const std::vector<float> &probs = a.probs;
    double loss =
        -std::log(std::max(probs[static_cast<std::size_t>(ex.label)],
                           1e-12f));

    // ---- backward ----
    std::vector<float> dLogits = probs;
    dLogits[static_cast<std::size_t>(ex.label)] -= 1.0f;

    std::vector<float> dF2, dF1, dP2, dC2, dP1, dC1, dX;
    denseBackward(a.f2, p.fc3W, nullptr, dLogits, g.fc3W, g.fc3B, dF2);
    denseBackward(a.f1, p.fc2W, &a.f2, dF2, g.fc2W, g.fc2B, dF1);
    denseBackward(a.p2, p.fc1W, &a.f1, dF1, g.fc1W, g.fc1B, dP2);
    poolBackward(16, 10, dP2, dC2);
    convBackward(a.p1, 6, 14, p.conv2W, 16, 5, 0, a.c2, dC2, g.conv2W,
                 g.conv2B, dP1);
    poolBackward(6, 28, dP1, dC1);
    convBackward(a.x, 1, 28, p.conv1W, 6, 5, 2, a.c1, dC1, g.conv1W,
                 g.conv1B, dX);
    return loss;
}

double
LeNetTrainer::step(std::span<const LenetExample> batch, float lr)
{
    LYNX_ASSERT(!batch.empty(), "empty batch");
    LeNetParams g = zerosLike(params_);
    const LeNet net(params_);
    LeNetActivations a;
    double loss = 0;
    for (const auto &ex : batch)
        loss += backprop(net, ex, a, g);
    const float scale = -lr / static_cast<float>(batch.size());
    axpy(params_.conv1W, g.conv1W, scale);
    axpy(params_.conv1B, g.conv1B, scale);
    axpy(params_.conv2W, g.conv2W, scale);
    axpy(params_.conv2B, g.conv2B, scale);
    axpy(params_.fc1W, g.fc1W, scale);
    axpy(params_.fc1B, g.fc1B, scale);
    axpy(params_.fc2W, g.fc2W, scale);
    axpy(params_.fc2B, g.fc2B, scale);
    axpy(params_.fc3W, g.fc3W, scale);
    axpy(params_.fc3B, g.fc3B, scale);
    return loss / static_cast<double>(batch.size());
}

double
LeNetTrainer::train(std::span<const LenetExample> data, int epochs,
                    int batchSize, float lr, std::uint64_t seed)
{
    LYNX_ASSERT(!data.empty() && batchSize > 0, "bad training config");
    std::vector<std::size_t> order(data.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    sim::Rng rng(seed);
    double epochLoss = 0;

    std::vector<LenetExample> batch;
    for (int e = 0; e < epochs; ++e) {
        // Fisher-Yates shuffle.
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.below(i + 1)]);
        epochLoss = 0;
        int batches = 0;
        for (std::size_t at = 0; at < order.size();
             at += static_cast<std::size_t>(batchSize)) {
            batch.clear();
            for (std::size_t j = at;
                 j < std::min(order.size(),
                              at + static_cast<std::size_t>(batchSize));
                 ++j)
                batch.push_back(data[order[j]]);
            epochLoss += step(batch, lr);
            ++batches;
        }
        epochLoss /= std::max(1, batches);
    }
    return epochLoss;
}

double
LeNetTrainer::accuracy(std::span<const LenetExample> data) const
{
    LeNet net(params_);
    int hits = 0;
    for (const auto &ex : data)
        hits += (net.classify(ex.image) == ex.label);
    return static_cast<double>(hits) /
           static_cast<double>(data.size());
}

std::vector<LenetExample>
synthTrainingSet(int variantsPerDigit, std::uint64_t firstVariant)
{
    std::vector<LenetExample> out;
    for (int d = 0; d < 10; ++d) {
        for (int v = 0; v < variantsPerDigit; ++v) {
            LenetExample ex;
            ex.image = workload::synthMnist(
                d, firstVariant + static_cast<std::uint64_t>(v));
            ex.label = d;
            out.push_back(std::move(ex));
        }
    }
    return out;
}

} // namespace lynx::apps
