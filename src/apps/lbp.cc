#include "lbp.hh"

#include <algorithm>

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

/**
 * The per-cell histograms of the LBP codes of @p img into @p hist,
 * with @p cellOff as scratch. An interior pixel's code comes straight
 * from the three rows around it. Only the one-pixel border clamps: the
 * first and last rows stand in for the missing row above or below, and
 * the first and last columns for the missing column. Integer code, so
 * the result is exactly the histogram of lbpCodes().
 */
void
lbpHistogramInto(std::span<const std::uint8_t> img, int w, int h,
                 int cells, std::vector<std::size_t> &cellOff,
                 std::vector<std::uint32_t> &hist)
{
    LYNX_ASSERT(img.size() == static_cast<std::size_t>(w) * h,
                "image size mismatch");
    LYNX_ASSERT(cells > 0 && w >= cells && h >= cells,
                "bad LBP cell grid");
    // cellOff[x]: the offset of column x's cell within a cell row.
    cellOff.resize(static_cast<std::size_t>(w));
    for (int x = 0; x < w; ++x)
        cellOff[static_cast<std::size_t>(x)] =
            static_cast<std::size_t>(std::min(x * cells / w, cells - 1)) *
            256;
    hist.assign(static_cast<std::size_t>(cells) * cells * 256, 0);
    // Raw pointers: a store through a caller-owned vector would
    // otherwise make the compiler reload the vector's own pointers.
    const std::size_t *const off = cellOff.data();
    for (int y = 0; y < h; ++y) {
        const int cy = std::min(y * cells / h, cells - 1);
        std::uint32_t *const bins =
            hist.data() + static_cast<std::size_t>(cy) * cells * 256;
        const std::uint8_t *mid =
            img.data() + static_cast<std::size_t>(y) * w;
        const std::uint8_t *up = y > 0 ? mid - w : mid;
        const std::uint8_t *dn = y + 1 < h ? mid + w : mid;
        ++bins[off[0] + code8(up, mid, dn, 0, 0, std::min(1, w - 1))];
        for (int x = 1; x < w - 1; ++x)
            ++bins[off[x] + code8(up, mid, dn, x - 1, x, x + 1)];
        if (w > 1)
            ++bins[off[w - 1] + code8(up, mid, dn, w - 2, w - 1, w - 1)];
    }
}

} // namespace

std::vector<std::uint32_t>
lbpHistogram(std::span<const std::uint8_t> img, int w, int h, int cells)
{
    std::vector<std::size_t> cellOff;
    std::vector<std::uint32_t> hist;
    lbpHistogramInto(img, w, h, cells, cellOff, hist);
    return hist;
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
    return lbpChiSquare(lbpHistogram(a, w, h, cells),
                        lbpHistogram(b, w, h, cells));
}

bool
lbpVerify(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
          int w, int h, double threshold, int cells)
{
    return lbpDistance(a, b, w, h, cells) <= threshold;
}

std::vector<double>
lbpDistanceBatch(std::span<const LbpPair> pairs, int w, int h, int cells)
{
    std::vector<double> out;
    out.reserve(pairs.size());
    std::vector<std::size_t> cellOff;
    std::vector<std::uint32_t> ha, hb;
    for (const LbpPair &p : pairs) {
        lbpHistogramInto(p.a, w, h, cells, cellOff, ha);
        lbpHistogramInto(p.b, w, h, cells, cellOff, hb);
        out.push_back(lbpChiSquare(ha, hb));
    }
    return out;
}

std::vector<std::uint8_t>
lbpVerifyBatch(std::span<const LbpPair> pairs, int w, int h,
               double threshold, int cells)
{
    // The lbpDistanceBatch loop, thresholded as it goes: no
    // intermediate distance vector.
    std::vector<std::uint8_t> out;
    out.reserve(pairs.size());
    std::vector<std::size_t> cellOff;
    std::vector<std::uint32_t> ha, hb;
    for (const LbpPair &p : pairs) {
        lbpHistogramInto(p.a, w, h, cells, cellOff, ha);
        lbpHistogramInto(p.b, w, h, cells, cellOff, hb);
        out.push_back(lbpChiSquare(ha, hb) <= threshold ? 1 : 0);
    }
    return out;
}

} // namespace lynx::apps
