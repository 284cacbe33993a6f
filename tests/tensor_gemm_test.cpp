#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

namespace xs::tensor {
namespace {

// Naive triple-loop reference.
Tensor ref_matmul(const Tensor& a, const Tensor& b) {
    const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::int64_t i = 0; i < m; ++i)
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::int64_t p = 0; p < k; ++p)
                acc += static_cast<double>(a.at(i, p)) * b.at(p, j);
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesReference) {
    const auto [m, n, k] = GetParam();
    util::Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
    Tensor a({m, k}), b({k, n});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    const Tensor c = matmul(a, b);
    const Tensor r = ref_matmul(a, b);
    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(c, r);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSizes,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 7),
                      std::make_tuple(16, 16, 16), std::make_tuple(65, 33, 129),
                      std::make_tuple(128, 64, 256), std::make_tuple(1, 100, 50),
                      std::make_tuple(100, 1, 50), std::make_tuple(70, 70, 1)));

TEST(Gemm, SparseAMatchesReference) {
    // 90 %-sparse A above the size threshold exercises the row-sparse
    // zero-skip path; a dense B keeps the reference meaningful.
    util::Rng rng(99);
    Tensor a({64, 64}), b({64, 48});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() < 0.9) a[i] = 0.0f;
    const Tensor c = matmul(a, b);
    const Tensor r = ref_matmul(a, b);
    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
        << "max diff " << max_abs_diff(c, r);

    // alpha/beta semantics must match on the sparse path too.
    Tensor c2({64, 48}, 1.0f);
    gemm(64, 48, 64, 2.0f, a.data(), 64, b.data(), 48, 0.5f, c2.data(), 48);
    for (std::int64_t i = 0; i < c2.numel(); ++i)
        EXPECT_NEAR(c2[i], 2.0f * r[i] + 0.5f, 1e-2f);
}

TEST(Gemm, AlphaBeta) {
    util::Rng rng(3);
    Tensor a({4, 5}), b({5, 6}), c0({4, 6});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    fill_normal(c0, rng, 0.0f, 1.0f);

    Tensor c = c0;
    gemm(4, 6, 5, 2.0f, a.data(), 5, b.data(), 6, 0.5f, c.data(), 6);

    const Tensor ab = ref_matmul(a, b);
    for (std::int64_t i = 0; i < 24; ++i)
        EXPECT_NEAR(c[i], 2.0f * ab[i] + 0.5f * c0[i], 1e-4f);
}

TEST(Gemm, BetaOneAccumulates) {
    util::Rng rng(5);
    Tensor a({3, 3}), b({3, 3});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    Tensor c({3, 3}, 1.0f);
    gemm(3, 3, 3, 1.0f, a.data(), 3, b.data(), 3, 1.0f, c.data(), 3);
    const Tensor ab = ref_matmul(a, b);
    for (std::int64_t i = 0; i < 9; ++i) EXPECT_NEAR(c[i], ab[i] + 1.0f, 1e-4f);
}

TEST(Gemm, SerialMatchesParallel) {
    util::Rng rng(7);
    Tensor a({150, 90}), b({90, 110});
    fill_normal(a, rng, 0.0f, 1.0f);
    fill_normal(b, rng, 0.0f, 1.0f);
    Tensor c1({150, 110}), c2({150, 110});
    gemm(150, 110, 90, 1.0f, a.data(), 90, b.data(), 110, 0.0f, c1.data(), 110);
    gemm_serial(150, 110, 90, 1.0f, a.data(), 90, b.data(), 110, 0.0f, c2.data(),
                110);
    EXPECT_TRUE(allclose(c1, c2, 0.0f, 0.0f));
}

TEST(Gemm, InnerDimMismatchThrows) {
    Tensor a({2, 3}), b({4, 2});
    EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Gemm, ZeroInnerDimension) {
    // k = 0 with beta=0 must produce zeros, not read from B.
    Tensor c({2, 2}, 5.0f);
    gemm(2, 2, 0, 1.0f, nullptr, 1, nullptr, 1, 0.0f, c.data(), 2);
    for (int i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(c[i], 0.0f);
}

// gemm_pack_a decides dense vs zero-skip once per pack: dense matrices
// (odd sizes, several k-blocks) get full row panels, a 90 %-zero one gets
// none, and repacking the same object drops stale panels.
TEST(GemmPackA, DecidesSparsityAtPackTime) {
    PackedGemmA pa;
    for (const auto& [m, k] : {std::pair{16, 27}, {33, 300}, {8, 512},
                               {128, 1152}}) {
        util::Rng rng(static_cast<std::uint64_t>(m + k));
        Tensor a({m, k});
        fill_normal(a, rng, 0.0f, 1.0f);
        gemm_pack_a(m, k, a.data(), k, pa);
        EXPECT_FALSE(pa.sparse) << m << "x" << k;
        EXPECT_EQ(pa.panels.size(),
                  static_cast<std::size_t>((m + kPackMr - 1) / kPackMr *
                                           kPackMr * k));
    }
    util::Rng rng(21);
    Tensor a({48, 96});
    fill_normal(a, rng, 0.0f, 1.0f);
    for (std::int64_t i = 0; i < a.numel(); ++i)
        if (rng.uniform() < 0.9) a[i] = 0.0f;
    gemm_pack_a(48, 96, a.data(), 96, pa);
    EXPECT_TRUE(pa.sparse);
    EXPECT_TRUE(pa.panels.empty());
}

// The implicit-GEMM conv tiles against tensor::im2col + a reference matmul
// + bias/ReLU, over every kernel the "same" geometry allows in practice,
// maps from 1×1 to 32×32, column counts off the 16-lane grid and across
// n-blocks, patches deeper than one k-block, and dense and 90 %-sparse
// weights. The guard bands hold NaN: a tap that escaped its mask would
// poison the output.
TEST(GemmConvTiles, MatchIm2colReference) {
    struct Map {
        std::int64_t size, batch;
    };
    const std::int64_t cout = 12;  // one full and one partial row panel
    int case_id = 0;
    for (const std::int64_t k : {1, 3, 5}) {
        for (const Map map : {Map{1, 5}, Map{2, 5}, Map{3, 5}, Map{6, 30},
                              Map{32, 2}}) {
            // A shallow patch and one deeper than a k-block (> kPackKc).
            for (const std::int64_t cin : {std::int64_t{3}, 257 / (k * k) + 1}) {
                for (const bool sparse : {false, true}) {
                    ++case_id;
                    const std::int64_t hw = map.size * map.size;
                    const std::int64_t cols = map.batch * hw;
                    const std::int64_t patch = cin * k * k;
                    util::Rng rng(static_cast<std::uint64_t>(case_id));
                    Tensor w({cout, patch}), bias({cout});
                    fill_normal(w, rng, 0.0f, 1.0f);
                    fill_normal(bias, rng, 0.0f, 1.0f);
                    if (sparse)
                        for (std::int64_t i = 0; i < w.numel(); ++i)
                            if (rng.uniform() < 0.9) w[i] = 0.0f;
                    // Channel-major activation between NaN guard bands.
                    const std::int64_t guard = conv_b_guard(map.size, k);
                    std::vector<float> act(
                        static_cast<std::size_t>(2 * guard + cin * cols),
                        std::numeric_limits<float>::quiet_NaN());
                    float* x = act.data() + guard;
                    for (std::int64_t i = 0; i < cin * cols; ++i)
                        x[i] = static_cast<float>(rng.normal());

                    PackedGemmA pa;
                    gemm_pack_a(cout, patch, w.data(), patch, pa);
                    EXPECT_EQ(pa.sparse, sparse && cout * patch > 1024);
                    std::vector<std::int64_t> offsets;
                    std::vector<std::uint32_t> masks;
                    ConvB b;
                    b.x = x;
                    b.cols = cols;
                    b.taps = k * k;
                    b.mask_panels =
                        conv_b_tables(map.size, map.size, k, offsets, masks);
                    b.tap_offset = offsets.data();
                    b.lane_mask = masks.data();
                    const bool relu = case_id % 2 == 0;
                    Tensor c({cout, cols});
                    // Two calls: the tile range splits anywhere.
                    const std::int64_t tiles = gemm_tile_count(cout, cols);
                    gemm_conv_tiles(pa, w.data(), patch, b, c.data(), cols,
                                    bias.data(), relu, 0, tiles / 2);
                    gemm_conv_tiles(pa, w.data(), patch, b, c.data(), cols,
                                    bias.data(), relu, tiles / 2, tiles);

                    Tensor img({cin, map.size, map.size}), col({patch, hw});
                    Tensor r({cout, cols});
                    for (std::int64_t n = 0; n < map.batch; ++n) {
                        for (std::int64_t ch = 0; ch < cin; ++ch)
                            for (std::int64_t q = 0; q < hw; ++q)
                                img[ch * hw + q] = x[ch * cols + n * hw + q];
                        im2col(img.data(), cin, map.size, map.size, k, k, 1,
                               (k - 1) / 2, col.data());
                        const Tensor y = ref_matmul(w, col);
                        for (std::int64_t o = 0; o < cout; ++o)
                            for (std::int64_t q = 0; q < hw; ++q) {
                                const float v = y.at(o, q) + bias[o];
                                r.at(o, n * hw + q) =
                                    relu ? std::max(v, 0.0f) : v;
                            }
                    }
                    EXPECT_TRUE(allclose(c, r, 1e-3f, 1e-3f))
                        << "k=" << k << " map=" << map.size
                        << " batch=" << map.batch << " cin=" << cin
                        << (sparse ? " sparse" : " dense") << " max diff "
                        << max_abs_diff(c, r);
                }
            }
        }
    }
}

}  // namespace
}  // namespace xs::tensor
