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

/** Chi-square distance between two equal-length histograms: the sum
 *  over ascending bins of (x-y)^2/(x+y), empty bins skipped. The dense
 *  reference definition of the distance lbpDistance() computes. */
double lbpChiSquare(const std::vector<std::uint32_t> &a,
                    const std::vector<std::uint32_t> &b);

/**
 * Caller-owned scratch of the LBP pair kernel, sized on first use and
 * reused across pairs and calls: one row of codes, the two images'
 * per-cell histograms, and one occupancy bit per bin, set by either
 * image. Between pairs every bin and bitmap word is zero, because the
 * chi-square sum clears what it visits, so a pair starts without
 * clearing 32 KB of histograms.
 */
struct LbpScratch
{
    std::vector<std::uint8_t> codes;      ///< one row of LBP codes
    std::vector<std::size_t> cellOff;     ///< column -> cell bin offset
    std::vector<std::uint32_t> ha, hb;    ///< the pair's histograms
    std::vector<std::uint64_t> occupied;  ///< bit i: bin i non-empty
};

/**
 * Full-pipeline distance between two images (0 = identical):
 * bit-identical to lbpChiSquare() of their lbpHistogram()s. It sums
 * only the bins that are non-empty in either histogram, in ascending
 * bin order, which are the only terms the dense sum adds.
 */
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
 * Full-pipeline distances for a batch of pairs in one sweep over one
 * scratch (one batched kernel instead of 2B histogram kernels).
 * Element @p i is bit-identical to lbpDistance(pairs[i]...).
 */
std::vector<double> lbpDistanceBatch(std::span<const LbpPair> pairs,
                                     int w, int h, int cells = 4);

/** lbpDistanceBatch() into @p out, on the caller's @p scratch. */
void lbpDistanceBatch(std::span<const LbpPair> pairs, int w, int h,
                      int cells, LbpScratch &scratch,
                      std::vector<double> &out);

/** Batched lbpVerify(): element @p i is 1 iff pair @p i matches. */
std::vector<std::uint8_t> lbpVerifyBatch(std::span<const LbpPair> pairs,
                                         int w, int h,
                                         double threshold = 50.0,
                                         int cells = 4);

/** lbpVerifyBatch() into @p out, on the caller's @p scratch. */
void lbpVerifyBatch(std::span<const LbpPair> pairs, int w, int h,
                    double threshold, int cells, LbpScratch &scratch,
                    std::vector<std::uint8_t> &out);

} // namespace lynx::apps

#endif // LYNX_APPS_LBP_HH
