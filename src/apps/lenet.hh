/**
 * @file
 * LeNet-5 convolutional network inference (LeCun et al. 1998), the
 * model the paper's §6.3 inference service runs: "A client sends
 * 28×28 grayscale images from the standard MNIST dataset, and the
 * server returns the recognized digit".
 *
 * This is a complete from-scratch forward pass (conv → pool → conv →
 * pool → three fully-connected layers → softmax) computing real
 * floating-point results, so the inference service's responses are
 * checkable end-to-end. Weights come either from a seed (untrained —
 * sufficient for all timing experiments, which don't depend on
 * weight values) or from LeNetTrainer (lenet_train.hh), which trains
 * the network on the synthetic digit set so the served
 * classifications are genuinely correct.
 *
 * The layer structure matches what the paper's TVM-compiled version
 * launches as separate GPU kernels; the persistent-kernel service in
 * the benchmarks charges one device kernel per layer.
 */

#ifndef LYNX_APPS_LENET_HH
#define LYNX_APPS_LENET_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace lynx::apps {

/** All learnable parameters of LeNet-5 (28×28 input variant). */
struct LeNetParams
{
    // conv1: 6 output channels, 5x5 kernels, pad 2 (28x28 -> 28x28),
    // then 2x2 average pool -> 14x14.
    std::vector<float> conv1W; // [6][1][5][5]
    std::vector<float> conv1B; // [6]
    // conv2: 16 channels, 5x5, no pad (14x14 -> 10x10), pool -> 5x5.
    std::vector<float> conv2W; // [16][6][5][5]
    std::vector<float> conv2B; // [16]
    // fc1: 400 -> 120, fc2: 120 -> 84, fc3: 84 -> 10.
    std::vector<float> fc1W, fc1B;
    std::vector<float> fc2W, fc2B;
    std::vector<float> fc3W, fc3B;

    /** @return parameters initialized from @p seed. */
    static LeNetParams random(std::uint64_t seed);
};

/**
 * Every layer's output of one forward pass, in caller-owned buffers
 * that LeNet::forwardInto() sizes on first use and then reuses.
 */
struct LeNetActivations
{
    std::vector<float> x;      ///< 1x28x28 normalized input
    std::vector<float> c1, p1; ///< 6x28x28 conv+tanh, 6x14x14 pool
    std::vector<float> c2, p2; ///< 16x10x10 conv+tanh, 16x5x5 pool
    std::vector<float> f1, f2; ///< 120 and 84, dense+tanh
    std::vector<float> logits; ///< 10, dense
    std::vector<float> probs;  ///< 10, softmax of logits
};

/** LeNet-5 digit classifier (28×28 grayscale input, 10 classes). */
class LeNet
{
  public:
    static constexpr int imageDim = 28;
    static constexpr int imageBytes = imageDim * imageDim;
    static constexpr int numClasses = 10;

    /** Build the network with weights derived from @p seed. */
    explicit LeNet(std::uint64_t seed = 0x1e4e7);

    /** Build the network from (e.g. trained) parameters. */
    explicit LeNet(LeNetParams params);

    /**
     * Run the full forward pass.
     * @param image 784 grayscale bytes, row-major.
     * @return softmax probabilities over the 10 digit classes.
     */
    std::array<float, numClasses>
    forward(std::span<const std::uint8_t> image) const;

    /** @return the argmax class of forward(@p image). */
    int classify(std::span<const std::uint8_t> image) const;

    /**
     * The one forward pass: run @p image through every layer, keeping
     * each layer's output in @p a (the trainer backpropagates through
     * them). Every output accumulates in a fixed order: the bias
     * first, then the taps in input-channel, kernel-row, kernel-column
     * order (a dense layer: ascending input index), skipping the taps
     * that fall outside the input. The kernels compute four outputs at
     * once without changing that order, so every float is the one the
     * plain nested loops give.
     */
    void forwardInto(std::span<const std::uint8_t> image,
                     LeNetActivations &a) const;

    /**
     * Run the forward pass over a batch of images: forwardInto() on
     * each image with one set of scratch buffers, the host-side
     * compute behind one batched kernel launch (the simulated batch
     * time is Gpu::batchedLaunch's). Element @p b of the result is
     * bit-identical to forward(@p images[b]).
     */
    std::vector<std::array<float, numClasses>>
    forwardBatch(std::span<const std::span<const std::uint8_t>> images)
        const;

    /** @return the per-image argmax classes of forwardBatch(). */
    std::vector<int>
    classifyBatch(std::span<const std::span<const std::uint8_t>> images)
        const;

  private:
    // The parameters with fc1W, fc2W and fc3W transposed to [in][out],
    // so the dense kernel runs along the outputs. Laid out once here
    // (the network is immutable) and held once: no second copy.
    LeNetParams params_;
};

} // namespace lynx::apps

#endif // LYNX_APPS_LENET_HH
