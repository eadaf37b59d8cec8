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

std::vector<std::uint32_t>
lbpHistogram(std::span<const std::uint8_t> img, int w, int h, int cells)
{
    LYNX_ASSERT(cells > 0 && w >= cells && h >= cells,
                "bad LBP cell grid");
    auto codes = lbpCodes(img, w, h);
    std::vector<std::uint32_t> hist(
        static_cast<std::size_t>(cells) * cells * 256, 0);
    for (int y = 0; y < h; ++y) {
        const int cy = std::min(y * cells / h, cells - 1);
        for (int x = 0; x < w; ++x) {
            const int cx = std::min(x * cells / w, cells - 1);
            const std::size_t cell =
                static_cast<std::size_t>(cy) * cells + cx;
            ++hist[cell * 256 + codes[static_cast<std::size_t>(y) * w + x]];
        }
    }
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

namespace {

/** lbpCodes + lbpHistogram fused into caller-owned scratch. The
 *  arithmetic is identical to the allocating functions above. */
void
lbpHistogramInto(std::span<const std::uint8_t> img, int w, int h,
                 int cells, std::vector<std::uint8_t> &codes,
                 std::vector<std::uint32_t> &hist)
{
    LYNX_ASSERT(img.size() == static_cast<std::size_t>(w) * h,
                "image size mismatch");
    LYNX_ASSERT(cells > 0 && w >= cells && h >= cells,
                "bad LBP cell grid");
    auto at = [&](int x, int y) {
        x = std::clamp(x, 0, w - 1);
        y = std::clamp(y, 0, h - 1);
        return img[static_cast<std::size_t>(y) * w + x];
    };
    static constexpr int dx[8] = {-1, 0, 1, 1, 1, 0, -1, -1};
    static constexpr int dy[8] = {-1, -1, -1, 0, 1, 1, 1, 0};
    // Raw pointers: a byte store through a caller-owned vector would
    // otherwise make the compiler reload the vector's own pointers.
    codes.resize(img.size());
    std::uint8_t *const code = codes.data();
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            std::uint8_t c = at(x, y);
            std::uint8_t bits = 0;
            for (int i = 0; i < 8; ++i) {
                if (at(x + dx[i], y + dy[i]) >= c)
                    bits = static_cast<std::uint8_t>(bits | (1u << i));
            }
            code[static_cast<std::size_t>(y) * w + x] = bits;
        }
    }
    hist.assign(static_cast<std::size_t>(cells) * cells * 256, 0);
    std::uint32_t *const bins = hist.data();
    for (int y = 0; y < h; ++y) {
        const int cy = std::min(y * cells / h, cells - 1);
        for (int x = 0; x < w; ++x) {
            const int cx = std::min(x * cells / w, cells - 1);
            const std::size_t cell =
                static_cast<std::size_t>(cy) * cells + cx;
            ++bins[cell * 256 + code[static_cast<std::size_t>(y) * w + x]];
        }
    }
}

} // namespace

std::vector<double>
lbpDistanceBatch(std::span<const LbpPair> pairs, int w, int h, int cells)
{
    std::vector<double> out;
    out.reserve(pairs.size());
    std::vector<std::uint8_t> codes;
    std::vector<std::uint32_t> ha, hb;
    for (const LbpPair &p : pairs) {
        lbpHistogramInto(p.a, w, h, cells, codes, ha);
        lbpHistogramInto(p.b, w, h, cells, codes, hb);
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
    std::vector<std::uint8_t> codes;
    std::vector<std::uint32_t> ha, hb;
    for (const LbpPair &p : pairs) {
        lbpHistogramInto(p.a, w, h, cells, codes, ha);
        lbpHistogramInto(p.b, w, h, cells, codes, hb);
        out.push_back(lbpChiSquare(ha, hb) <= threshold ? 1 : 0);
    }
    return out;
}

} // namespace lynx::apps
