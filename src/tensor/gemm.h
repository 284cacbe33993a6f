// Blocked single-precision GEMM: C = alpha * op(A) * op(B) + beta * C.
// This is the workhorse behind Conv2d (via im2col) and Linear layers; the
// inference engine's conv step reads its activation directly as the B
// operand (gemm_conv_tiles).
#pragma once

#include "tensor/tensor.h"

namespace xs::tensor {

// C(m×n) = alpha * A(m×k) * B(k×n) + beta * C. Raw-pointer core so that the
// nn layers can call it on tensor slices without copies. May parallelize
// across row blocks for large problems.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc);

// Strictly single-threaded variant for callers already running inside a
// parallel_for region (nested pool dispatch is not supported).
void gemm_serial(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c, std::int64_t ldc);

// Reusable packed-A operand for repeated GEMMs against one left-hand matrix.
// The inference engine packs each conv layer's folded weights once per
// refresh and runs the whole batch through them as one implicit GEMM
// (gemm_conv_tiles, DESIGN.md §6) — the per-call sparsity scan and
// A-packing of gemm() disappear from the batch loop. A row-sparse matrix
// (pruned weights) is detected at pack time and multiplied through the
// zero-skip path instead of packed panels.
struct PackedGemmA {
    std::int64_t m = 0, k = 0;
    bool sparse = false;        // use the raw matrix via the zero-skip path
    std::vector<float> panels;  // (k-block × row-panel) layout when !sparse
};

// Analyze and pack A (m × k, leading dimension lda); reuses storage.
void gemm_pack_a(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, PackedGemmA& out);

// ---- implicit-GEMM conv tiles (the inference engine's conv path) ----
//
// B is the virtual (cin·k² × n·H·W) im2col matrix of a stride-1 conv with
// 2·pad = k − 1, never materialised: the micro-kernels load each B row —
// tap (c, ki, kj) across kNr output columns starting at jb — straight from
// the channel-major activation at c·cols + jb + (ki − pad)·W + (kj − pad),
// and AND it with a per-layer lane mask that zeroes the taps falling
// outside the image (exactly the zeros an explicit im2col would hold).
constexpr std::int64_t kPackMr = 8;     // row-panel height (micro-kernel)
constexpr std::int64_t kPackNr = 16;    // column-panel width
constexpr std::int64_t kPackKc = 256;   // k-block depth
constexpr std::int64_t kPackNc = 1024;  // n-block width

// Tiles of the (row-panel × n-block) grid gemm_conv_tiles walks.
inline std::int64_t gemm_tile_count(std::int64_t m, std::int64_t n) {
    return ((m + kPackMr - 1) / kPackMr) * ((n + kPackNc - 1) / kPackNc);
}

// The B operand of gemm_conv_tiles. Image i's channel c starts at
// x + c·cols + i·H·W. Tap loads reach conv_b_guard(W, k) floats before
// channel 0 and past the last channel, so the activation must sit between
// guard bands at least that wide (their contents are masked or land in
// columns that are never stored).
struct ConvB {
    const float* x = nullptr;
    std::int64_t cols = 0;  // n·H·W: B's column count and the channel stride
    std::int64_t taps = 0;  // k²
    const std::int64_t* tap_offset = nullptr;  // (ki − pad)·W + (kj − pad)
    // [panel % mask_panels][tap][kPackNr] lanes, all-ones or zero. A
    // panel's in-image pattern repeats every lcm(H·W, kPackNr) columns.
    const std::uint32_t* lane_mask = nullptr;
    std::int64_t mask_panels = 0;
};

inline std::int64_t conv_b_guard(std::int64_t w, std::int64_t k) {
    return (k - 1) / 2 * (w + 1) + kPackNr;
}

// Build the per-layer ConvB tables of an H×W map and a k×k kernel into
// grow-only storage; returns mask_panels.
std::int64_t conv_b_tables(std::int64_t h, std::int64_t w, std::int64_t k,
                           std::vector<std::int64_t>& tap_offset,
                           std::vector<std::uint32_t>& lane_mask);

// C (m×b.cols) = A·B for the tile range [tile_lo, tile_hi), with an
// optional fused per-row bias (+ ReLU) epilogue applied while the tile is
// cache-hot. Tiles write disjoint C regions, so callers parallelize by
// splitting the tile range across workers. beta = 0 semantics (C is
// overwritten). A row-sparse A (pruned weights) runs a zero-skip kernel
// over the same B.
void gemm_conv_tiles(const PackedGemmA& pa, const float* a_raw,
                     std::int64_t lda, const ConvB& b, float* c,
                     std::int64_t ldc, const float* bias, bool relu,
                     std::int64_t tile_lo, std::int64_t tile_hi);

// Convenience wrapper on rank-2 tensors: A·B.
Tensor matmul(const Tensor& a, const Tensor& b);

}  // namespace xs::tensor
