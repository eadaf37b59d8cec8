/**
 * @file
 * Local Binary Patterns face verification (Ahonen, Hadid,
 * Pietikäinen 2006) — the "well-known local binary patterns (LBP)
 * algorithm for Face Verification" the paper's §6.4 server runs on
 * the GPU: the server compares the picture received from the client
 * with the database picture for the claimed identity.
 *
 * Complete implementation: 8-neighbour LBP codes, per-cell 256-bin
 * histograms over a grid, chi-square histogram distance, and a
 * thresholded verify decision. Computed for real so the face
 * verification service returns checkable answers.
 */

#ifndef LYNX_APPS_LBP_HH
#define LYNX_APPS_LBP_HH

#include <cstdint>
#include <span>
#include <vector>

namespace lynx::apps {

/** @return the LBP code image of a @p w × @p h grayscale image
 *  (border pixels use clamped neighbours). */
std::vector<std::uint8_t> lbpCodes(std::span<const std::uint8_t> img,
                                   int w, int h);

/**
 * @return concatenated per-cell 256-bin histograms of the LBP codes,
 * over a @p cells × @p cells grid.
 */
std::vector<std::uint32_t> lbpHistogram(std::span<const std::uint8_t> img,
                                        int w, int h, int cells = 4);

/** Chi-square distance between two equal-length histograms. */
double lbpChiSquare(const std::vector<std::uint32_t> &a,
                    const std::vector<std::uint32_t> &b);

/** Full-pipeline distance between two images (0 = identical). */
double lbpDistance(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b, int w, int h,
                   int cells = 4);

/** @return whether the two images match under @p threshold. */
bool lbpVerify(std::span<const std::uint8_t> a,
               std::span<const std::uint8_t> b, int w, int h,
               double threshold = 50.0, int cells = 4);

/** One probe/reference image pair of a batched LBP compare. */
struct LbpPair
{
    std::span<const std::uint8_t> a;
    std::span<const std::uint8_t> b;
};

/**
 * Full-pipeline distances for a batch of pairs in one sweep,
 * reusing the histogram scratch buffers across the batch (one
 * batched kernel instead of 2B histogram kernels). Element @p i is
 * bit-identical to lbpDistance(pairs[i]...).
 */
std::vector<double> lbpDistanceBatch(std::span<const LbpPair> pairs,
                                     int w, int h, int cells = 4);

/** Batched lbpVerify(): element @p i is 1 iff pair @p i matches. */
std::vector<std::uint8_t> lbpVerifyBatch(std::span<const LbpPair> pairs,
                                         int w, int h,
                                         double threshold = 50.0,
                                         int cells = 4);

} // namespace lynx::apps

#endif // LYNX_APPS_LBP_HH
