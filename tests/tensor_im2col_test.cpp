#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <tuple>

namespace xs::tensor {
namespace {

// Direct convolution reference: y[f, oi, oj] = Σ_c Σ_ki Σ_kj w[f,c,ki,kj] ·
// x[c, oi*s - p + ki, oj*s - p + kj]
Tensor ref_conv(const Tensor& x, const Tensor& w, std::int64_t stride,
                std::int64_t pad) {
    const std::int64_t c = x.dim(0), h = x.dim(1), wd = x.dim(2);
    const std::int64_t f = w.dim(0), k = w.dim(2);
    const std::int64_t oh = conv_out_size(h, k, stride, pad);
    const std::int64_t ow = conv_out_size(wd, k, stride, pad);
    Tensor y({f, oh, ow});
    for (std::int64_t fo = 0; fo < f; ++fo)
        for (std::int64_t oi = 0; oi < oh; ++oi)
            for (std::int64_t oj = 0; oj < ow; ++oj) {
                double acc = 0.0;
                for (std::int64_t ci = 0; ci < c; ++ci)
                    for (std::int64_t ki = 0; ki < k; ++ki)
                        for (std::int64_t kj = 0; kj < k; ++kj) {
                            const std::int64_t ii = oi * stride - pad + ki;
                            const std::int64_t jj = oj * stride - pad + kj;
                            if (ii < 0 || ii >= h || jj < 0 || jj >= wd) continue;
                            acc += static_cast<double>(
                                       w[((fo * c + ci) * k + ki) * k + kj]) *
                                   x[(ci * h + ii) * wd + jj];
                        }
                y[(fo * oh + oi) * ow + oj] = static_cast<float>(acc);
            }
    return y;
}

class Im2colConfig
    : public ::testing::TestWithParam<std::tuple<int, int, int, int, int>> {};

TEST_P(Im2colConfig, GemmEqualsDirectConv) {
    const auto [channels, size, kernel, stride, pad] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(channels * 31 + size * 7 + kernel));
    Tensor x({channels, size, size});
    fill_normal(x, rng, 0.0f, 1.0f);
    const std::int64_t filters = 4;
    Tensor w({filters, channels, kernel, kernel});
    fill_normal(w, rng, 0.0f, 0.5f);

    const std::int64_t oh = conv_out_size(size, kernel, stride, pad);
    const std::int64_t ow = conv_out_size(size, kernel, stride, pad);
    const std::int64_t patch = channels * kernel * kernel;
    Tensor col({patch, oh * ow});
    im2col(x.data(), channels, size, size, kernel, kernel, stride, pad, col.data());

    // y = W_mat (filters × patch) · col
    const Tensor wmat = w.reshaped({filters, patch});
    const Tensor y = matmul(wmat, col);
    const Tensor ref = ref_conv(x, w, stride, pad).reshaped({filters, oh * ow});
    EXPECT_TRUE(allclose(y, ref, 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(y, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Im2colConfig,
    ::testing::Values(std::make_tuple(1, 5, 3, 1, 1), std::make_tuple(3, 8, 3, 1, 1),
                      std::make_tuple(2, 6, 3, 2, 1), std::make_tuple(4, 7, 1, 1, 0),
                      std::make_tuple(2, 9, 5, 1, 2), std::make_tuple(3, 8, 3, 1, 0),
                      std::make_tuple(1, 4, 2, 2, 0)));

TEST(Im2col, Col2imIsAdjoint) {
    // ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩ — the defining adjointness property
    // that makes the conv backward pass correct.
    util::Rng rng(41);
    const std::int64_t c = 3, s = 6, k = 3, stride = 1, pad = 1;
    const std::int64_t oh = conv_out_size(s, k, stride, pad);
    const std::int64_t patch = c * k * k;

    Tensor x({c, s, s});
    fill_normal(x, rng, 0.0f, 1.0f);
    Tensor y({patch, oh * oh});
    fill_normal(y, rng, 0.0f, 1.0f);

    Tensor cx({patch, oh * oh});
    im2col(x.data(), c, s, s, k, k, stride, pad, cx.data());
    Tensor ay({c, s, s});
    col2im(y.data(), c, s, s, k, k, stride, pad, ay.data());

    double lhs = 0.0, rhs = 0.0;
    for (std::int64_t i = 0; i < cx.numel(); ++i)
        lhs += static_cast<double>(cx[i]) * y[i];
    for (std::int64_t i = 0; i < x.numel(); ++i)
        rhs += static_cast<double>(x[i]) * ay[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, PaddingProducesZeros) {
    const std::int64_t c = 1, s = 2, k = 3, stride = 1, pad = 1;
    Tensor x({c, s, s}, 1.0f);
    const std::int64_t oh = conv_out_size(s, k, stride, pad);
    Tensor col({c * k * k, oh * oh});
    im2col(x.data(), c, s, s, k, k, stride, pad, col.data());
    // Top-left output's top-left kernel tap reads padding (0).
    EXPECT_FLOAT_EQ(col.at(0, 0), 0.0f);
    // Centre taps read real pixels (1).
    EXPECT_FLOAT_EQ(col.at(4, 0), 1.0f);
}

TEST(Im2col, KernelWiderThanInputPlusPad) {
    // Regression: the stride-1 fast path must clamp its edge bounds — a
    // kernel wider than width+pad pushes the raw interior span negative
    // (or past out_w), which used to memset outside the row.
    const std::int64_t h = 3, w = 3, k = 7, pad = 4;
    const std::int64_t out = conv_out_size(w, k, 1, pad);
    util::Rng rng(77);
    Tensor x({1, h, w});
    fill_normal(x, rng, 0.0f, 1.0f);
    Tensor col({k * k, out * out});
    im2col(x.data(), 1, h, w, k, k, 1, pad, col.data());
    std::int64_t row = 0;
    for (std::int64_t ki = 0; ki < k; ++ki)
        for (std::int64_t kj = 0; kj < k; ++kj, ++row)
            for (std::int64_t oi = 0; oi < out; ++oi)
                for (std::int64_t oj = 0; oj < out; ++oj) {
                    const std::int64_t ii = oi - pad + ki, jj = oj - pad + kj;
                    const float expect =
                        (ii >= 0 && ii < h && jj >= 0 && jj < w)
                            ? x[ii * w + jj]
                            : 0.0f;
                    EXPECT_EQ(col.at(row, oi * out + oj), expect)
                        << ki << "," << kj << "," << oi << "," << oj;
                }
}

TEST(Im2col, OutSizeFormula) {
    EXPECT_EQ(conv_out_size(32, 3, 1, 1), 32);
    EXPECT_EQ(conv_out_size(32, 3, 2, 1), 16);
    EXPECT_EQ(conv_out_size(5, 3, 1, 0), 3);
    EXPECT_EQ(conv_out_size(7, 1, 1, 0), 7);
}

}  // namespace
}  // namespace xs::tensor
