#include "lbp.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace lynx::apps {

std::vector<std::uint8_t>
lbpCodes(std::span<const std::uint8_t> img, int w, int h)
{
    LYNX_ASSERT(img.size() == static_cast<std::size_t>(w) * h,
                "image size mismatch");
    auto at = [&](int x, int y) {
        x = std::clamp(x, 0, w - 1);
        y = std::clamp(y, 0, h - 1);
        return img[static_cast<std::size_t>(y) * w + x];
    };
    static constexpr int dx[8] = {-1, 0, 1, 1, 1, 0, -1, -1};
    static constexpr int dy[8] = {-1, -1, -1, 0, 1, 1, 1, 0};
    std::vector<std::uint8_t> codes(img.size());
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            std::uint8_t c = at(x, y);
            std::uint8_t code = 0;
            for (int i = 0; i < 8; ++i) {
                if (at(x + dx[i], y + dy[i]) >= c)
                    code = static_cast<std::uint8_t>(code | (1u << i));
            }
            codes[static_cast<std::size_t>(y) * w + x] = code;
        }
    }
    return codes;
}

namespace {

/** The LBP code of column @p x of row @p mid, with @p up and @p dn the
 *  rows above and below and @p l and @p r the columns left and right:
 *  bit i is set when neighbour i, clockwise from the top-left, is at
 *  least the centre. */
inline unsigned
code8(const std::uint8_t *up, const std::uint8_t *mid,
      const std::uint8_t *dn, int l, int x, int r)
{
    const std::uint8_t c = mid[x];
    return (up[l] >= c) | (up[x] >= c) << 1 | (up[r] >= c) << 2 |
           (mid[r] >= c) << 3 | (dn[r] >= c) << 4 | (dn[x] >= c) << 5 |
           (dn[l] >= c) << 6 | (mid[l] >= c) << 7;
}

/** Sixteen pixels: one SSE2 register on x86-64, one NEON register on
 *  aarch64. A lane-wise comparison gives all ones where it holds. */
typedef std::uint8_t U8x16 __attribute__((vector_size(16)));

U8x16
load16(const std::uint8_t *p)
{
    U8x16 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

/** code8() of the 16 interior pixels from column @p x into
 *  @p codes[x..x+15]: each neighbour's comparison masks its bit. */
void
code16(const std::uint8_t *up, const std::uint8_t *mid,
       const std::uint8_t *dn, int x, std::uint8_t *codes)
{
    const U8x16 c = load16(mid + x);
    const U8x16 code =
        ((U8x16)(load16(up + x - 1) >= c) & 1) |
        ((U8x16)(load16(up + x) >= c) & 2) |
        ((U8x16)(load16(up + x + 1) >= c) & 4) |
        ((U8x16)(load16(mid + x + 1) >= c) & 8) |
        ((U8x16)(load16(dn + x + 1) >= c) & 16) |
        ((U8x16)(load16(dn + x) >= c) & 32) |
        ((U8x16)(load16(dn + x - 1) >= c) & 64) |
        ((U8x16)(load16(mid + x - 1) >= c) & 128);
    std::memcpy(codes + x, &code, sizeof code);
}

/**
 * The codes of row @p mid, @p w pixels, into @p codes, with @p up and
 * @p dn the rows above and below (the row itself stands in for a
 * missing one). The interior goes 16 pixels at a time, the last run
 * overlapping the one before it (a code computed twice is the same
 * code); an interior shorter than 16 goes one pixel at a time. Only
 * the first and last columns clamp.
 */
void
rowCodes(const std::uint8_t *up, const std::uint8_t *mid,
         const std::uint8_t *dn, int w, std::uint8_t *codes)
{
    codes[0] = static_cast<std::uint8_t>(
        code8(up, mid, dn, 0, 0, std::min(1, w - 1)));
    int x = 1;
    if (w - 2 >= 16) {
        // A run from x reads columns x - 1 to x + 16.
        for (; x + 16 < w; x += 16)
            code16(up, mid, dn, x, codes);
        if (x < w - 1)
            code16(up, mid, dn, w - 17, codes);
        x = w - 1;
    }
    for (; x < w - 1; ++x)
        codes[x] = static_cast<std::uint8_t>(
            code8(up, mid, dn, x - 1, x, x + 1));
    if (w > 1)
        codes[w - 1] = static_cast<std::uint8_t>(
            code8(up, mid, dn, w - 2, w - 1, w - 1));
}

/** Size @p s for @p w × @p h images over a @p cells × @p cells grid.
 *  Growing adds zeros and shrinking drops bins that are already
 *  zero, so the all-zero state between pairs survives. */
void
prepare(LbpScratch &s, int w, int h, int cells)
{
    LYNX_ASSERT(cells > 0 && w >= cells && h >= cells,
                "bad LBP cell grid");
    const std::size_t bins = static_cast<std::size_t>(cells) * cells * 256;
    s.codes.resize(static_cast<std::size_t>(w));
    s.cellOff.resize(static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x)
        s.cellOff[static_cast<std::size_t>(x)] =
            static_cast<std::size_t>(std::min(x * cells / w, cells - 1)) *
            256;
    s.ha.resize(bins);
    s.hb.resize(bins);
    s.occupied.resize(bins / 64);
}

/**
 * Add the per-cell histogram of the LBP codes of @p img to @p hist,
 * and set each bin's bit in @p s.occupied. Integer code, so the
 * counts are exactly the histogram of lbpCodes().
 */
void
scatterCodes(std::span<const std::uint8_t> img, int w, int h, int cells,
             LbpScratch &s, std::uint32_t *hist)
{
    LYNX_ASSERT(img.size() == static_cast<std::size_t>(w) * h,
                "image size mismatch");
    // Raw pointers: a store through a caller-owned vector would
    // otherwise make the compiler reload the vector's own pointers.
    const std::size_t *const off = s.cellOff.data();
    std::uint8_t *const codes = s.codes.data();
    std::uint64_t *const occ = s.occupied.data();
    for (int y = 0; y < h; ++y) {
        const std::size_t base =
            static_cast<std::size_t>(std::min(y * cells / h, cells - 1)) *
            cells * 256;
        const std::uint8_t *mid =
            img.data() + static_cast<std::size_t>(y) * w;
        rowCodes(y > 0 ? mid - w : mid, mid, y + 1 < h ? mid + w : mid, w,
                 codes);
        for (int x = 0; x < w; ++x) {
            const std::size_t bin = base + off[x] + codes[x];
            ++hist[bin];
            occ[bin / 64] |= std::uint64_t{1} << (bin % 64);
        }
    }
}

/**
 * The pair kernel: lbpChiSquare() of the two images' histograms, on
 * the prepared scratch @p s. The sum walks the occupied bins in
 * ascending order, so it adds the dense loop's terms in the dense
 * loop's order (a bin empty in both adds nothing there either), and
 * zeroes each bin and bitmap word it visits, which leaves @p s clear.
 */
double
pairDistance(const LbpPair &p, int w, int h, int cells, LbpScratch &s)
{
    LYNX_DEBUG_ASSERT(
        std::all_of(s.occupied.begin(), s.occupied.end(),
                    [](std::uint64_t m) { return m == 0; }) &&
            std::all_of(s.ha.begin(), s.ha.end(),
                        [](std::uint32_t c) { return c == 0; }) &&
            std::all_of(s.hb.begin(), s.hb.end(),
                        [](std::uint32_t c) { return c == 0; }),
        "LBP scratch not clear at the start of a pair");
    std::uint32_t *const ha = s.ha.data();
    std::uint32_t *const hb = s.hb.data();
    scatterCodes(p.a, w, h, cells, s, ha);
    scatterCodes(p.b, w, h, cells, s, hb);
    double d = 0.0;
    for (std::size_t i = 0; i < s.occupied.size(); ++i) {
        std::uint64_t m = s.occupied[i];
        s.occupied[i] = 0;
        for (; m != 0; m &= m - 1) {
            const std::size_t bin =
                i * 64 + static_cast<std::size_t>(std::countr_zero(m));
            const double x = static_cast<double>(ha[bin]);
            const double y = static_cast<double>(hb[bin]);
            ha[bin] = 0;
            hb[bin] = 0;
            d += (x - y) * (x - y) / (x + y);
        }
    }
    return d;
}

} // namespace

std::vector<std::uint32_t>
lbpHistogram(std::span<const std::uint8_t> img, int w, int h, int cells)
{
    LbpScratch s;
    prepare(s, w, h, cells);
    scatterCodes(img, w, h, cells, s, s.ha.data());
    return std::move(s.ha);
}

double
lbpChiSquare(const std::vector<std::uint32_t> &a,
             const std::vector<std::uint32_t> &b)
{
    LYNX_ASSERT(a.size() == b.size(), "histogram size mismatch");
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double x = static_cast<double>(a[i]);
        const double y = static_cast<double>(b[i]);
        if (x + y > 0.0)
            d += (x - y) * (x - y) / (x + y);
    }
    return d;
}

double
lbpDistance(std::span<const std::uint8_t> a,
            std::span<const std::uint8_t> b, int w, int h, int cells)
{
    LbpScratch s;
    prepare(s, w, h, cells);
    return pairDistance({a, b}, w, h, cells, s);
}

bool
lbpVerify(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
          int w, int h, double threshold, int cells)
{
    return lbpDistance(a, b, w, h, cells) <= threshold;
}

void
lbpDistanceBatch(std::span<const LbpPair> pairs, int w, int h, int cells,
                 LbpScratch &scratch, std::vector<double> &out)
{
    prepare(scratch, w, h, cells);
    out.clear();
    for (const LbpPair &p : pairs)
        out.push_back(pairDistance(p, w, h, cells, scratch));
}

std::vector<double>
lbpDistanceBatch(std::span<const LbpPair> pairs, int w, int h, int cells)
{
    LbpScratch s;
    std::vector<double> out;
    lbpDistanceBatch(pairs, w, h, cells, s, out);
    return out;
}

void
lbpVerifyBatch(std::span<const LbpPair> pairs, int w, int h,
               double threshold, int cells, LbpScratch &scratch,
               std::vector<std::uint8_t> &out)
{
    prepare(scratch, w, h, cells);
    out.clear();
    for (const LbpPair &p : pairs)
        out.push_back(
            pairDistance(p, w, h, cells, scratch) <= threshold ? 1 : 0);
}

std::vector<std::uint8_t>
lbpVerifyBatch(std::span<const LbpPair> pairs, int w, int h,
               double threshold, int cells)
{
    LbpScratch s;
    std::vector<std::uint8_t> out;
    lbpVerifyBatch(pairs, w, h, threshold, cells, s, out);
    return out;
}

} // namespace lynx::apps
