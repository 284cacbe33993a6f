#include "tensor/im2col.h"

#include <cstdint>
#include <algorithm>
#include <cstring>

namespace xs::tensor {

void im2col(const float* x, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* col) {
    const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
    const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
    const std::int64_t out_hw = out_h * out_w;

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < channels; ++c) {
        const float* xc = x + c * height * width;
        for (std::int64_t ki = 0; ki < kh; ++ki) {
            for (std::int64_t kj = 0; kj < kw; ++kj, ++row) {
                float* out_row = col + row * out_hw;
                // At stride 1 the interior of each output row is a contiguous
                // slice of the input row: memcpy it and zero only the padded
                // edges (the common 3×3/pad-1 conv shape hits this path).
                // Both bounds clamp into [0, out_w]: a kernel wider than
                // width+pad can push the raw lo past the row or hi negative.
                const std::int64_t lo =
                    stride == 1
                        ? std::min(out_w, std::max<std::int64_t>(0, pad - kj))
                        : 0;
                const std::int64_t hi =
                    stride == 1
                        ? std::max(lo, std::min(out_w, width + pad - kj))
                        : 0;
                for (std::int64_t oi = 0; oi < out_h; ++oi) {
                    const std::int64_t ii = oi * stride - pad + ki;
                    if (ii < 0 || ii >= height) {
                        std::memset(out_row + oi * out_w, 0,
                                    static_cast<std::size_t>(out_w) * sizeof(float));
                        continue;
                    }
                    const float* xrow = xc + ii * width;
                    float* orow = out_row + oi * out_w;
                    if (stride == 1) {
                        if (lo > 0)
                            std::memset(orow, 0,
                                        static_cast<std::size_t>(lo) * sizeof(float));
                        if (hi > lo)
                            std::memcpy(orow + lo, xrow + lo - pad + kj,
                                        static_cast<std::size_t>(hi - lo) *
                                            sizeof(float));
                        if (out_w > hi)
                            std::memset(orow + hi, 0,
                                        static_cast<std::size_t>(out_w - hi) *
                                            sizeof(float));
                        continue;
                    }
                    for (std::int64_t oj = 0; oj < out_w; ++oj) {
                        const std::int64_t jj = oj * stride - pad + kj;
                        orow[oj] = (jj >= 0 && jj < width) ? xrow[jj] : 0.0f;
                    }
                }
            }
        }
    }
}

void col2im(const float* col, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* x) {
    const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
    const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
    const std::int64_t out_hw = out_h * out_w;

    std::memset(x, 0,
                static_cast<std::size_t>(channels * height * width) * sizeof(float));

    std::int64_t row = 0;
    for (std::int64_t c = 0; c < channels; ++c) {
        float* xc = x + c * height * width;
        for (std::int64_t ki = 0; ki < kh; ++ki) {
            for (std::int64_t kj = 0; kj < kw; ++kj, ++row) {
                const float* in_row = col + row * out_hw;
                for (std::int64_t oi = 0; oi < out_h; ++oi) {
                    const std::int64_t ii = oi * stride - pad + ki;
                    if (ii < 0 || ii >= height) continue;
                    float* xrow = xc + ii * width;
                    const float* irow = in_row + oi * out_w;
                    for (std::int64_t oj = 0; oj < out_w; ++oj) {
                        const std::int64_t jj = oj * stride - pad + kj;
                        if (jj >= 0 && jj < width) xrow[jj] += irow[oj];
                    }
                }
            }
        }
    }
}

}  // namespace xs::tensor
