// im2col / col2im — the unrolling that turns a convolution into the MAC
// (matrix) form that is mapped onto crossbars (paper §III: "a Python wrapper
// ... unrolls each and every convolution operation into MAC operations").
// Training convs (Conv2d) materialise it; the inference engine's conv step
// reads the same matrix implicitly from its activation (gemm_conv_tiles in
// tensor/gemm.h).
#pragma once

#include "tensor/tensor.h"

namespace xs::tensor {

// Input  x: (C, H, W) single image.
// Output col: (C*kh*kw, out_h*out_w) where each column is one receptive
// field, laid out channel-major then kernel-row then kernel-col — the same
// ordering the crossbar mapper assumes for weight-matrix rows.
void im2col(const float* x, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* col);

// Scatter-add transpose of im2col (for convolution input gradients).
void col2im(const float* col, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* x);

// Spatial output size for one axis.
inline std::int64_t conv_out_size(std::int64_t in, std::int64_t k,
                                  std::int64_t stride, std::int64_t pad) {
    return (in + 2 * pad - k) / stride + 1;
}

}  // namespace xs::tensor
