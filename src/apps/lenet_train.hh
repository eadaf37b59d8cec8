/**
 * @file
 * From-scratch LeNet-5 training (SGD with backpropagation).
 *
 * The paper's service uses a TensorFlow/TVM-trained model; this repo
 * cannot ship MNIST or pre-trained weights, so it trains the same
 * architecture on the synthetic digit set (workload::synthMnist)
 * instead. None of the reproduced measurements depend on the weight
 * values — training exists so the examples serve *correct* digit
 * classifications end-to-end rather than arbitrary (but consistent)
 * ones.
 *
 * Full backpropagation through conv → tanh → avgpool → conv → tanh →
 * avgpool → fc → tanh → fc → tanh → fc → softmax with cross-entropy
 * loss, plain mini-batch SGD.
 */

#ifndef LYNX_APPS_LENET_TRAIN_HH
#define LYNX_APPS_LENET_TRAIN_HH

#include <cstdint>
#include <span>
#include <vector>

#include "apps/lenet.hh"

namespace lynx::apps {

/** One labelled training example. */
struct LenetExample
{
    std::vector<std::uint8_t> image; ///< 784 grayscale bytes
    int label = 0;                   ///< 0-9
};

/** Trains LeNetParams with mini-batch SGD. */
class LeNetTrainer
{
  public:
    explicit LeNetTrainer(std::uint64_t seed = 0x1e4e7)
        : params_(LeNetParams::random(seed))
    {}

    explicit LeNetTrainer(LeNetParams start)
        : params_(std::move(start))
    {}

    /**
     * One SGD step on a mini-batch.
     * @return the batch's mean cross-entropy loss (before the step).
     */
    double step(std::span<const LenetExample> batch, float lr);

    /**
     * Train for @p epochs over @p data with mini-batches of
     * @p batchSize (order shuffled per epoch from @p seed).
     * @return the final epoch's mean loss.
     */
    double train(std::span<const LenetExample> data, int epochs,
                 int batchSize, float lr, std::uint64_t seed = 1);

    /** @return fraction of @p data classified correctly. */
    double accuracy(std::span<const LenetExample> data) const;

    /** @return current parameters (hand these to LeNet). */
    const LeNetParams &params() const { return params_; }

  private:
    /** Forward through @p net (built from params_) into @p acts, then
     *  backward for one example; accumulates gradients into @p grads.
     *  @return the example's loss. */
    double backprop(const LeNet &net, const LenetExample &ex,
                    LeNetActivations &acts, LeNetParams &grads) const;

    LeNetParams params_;
};

/** @return a synthetic training set: @p variantsPerDigit variants of
 *  each digit (from workload::synthMnist). */
std::vector<LenetExample> synthTrainingSet(int variantsPerDigit,
                                           std::uint64_t firstVariant = 0);

} // namespace lynx::apps

#endif // LYNX_APPS_LENET_TRAIN_HH
