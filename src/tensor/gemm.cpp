#include "tensor/gemm.h"

#include "util/metrics.h"
#include "util/parallel.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

namespace xs::tensor {
namespace {

// GotoBLAS-style blocking: B is packed into NR-wide column panels per
// (k-block × n-block), A into MR-tall row panels, and an MR×NR register-
// blocked micro-kernel runs over the packed panels. Packing buffers are
// thread-local and only grow, so the steady state allocates nothing.
// The conv tiles keep the A panels and the blocking but read B straight
// from the activation (gemm.h), so B is never packed there.
constexpr std::int64_t kMr = kPackMr;  // micro-kernel rows
constexpr std::int64_t kNr = kPackNr;  // micro-kernel cols (one AVX-512 vector)
constexpr std::int64_t kKc = kPackKc;  // k-block depth
constexpr std::int64_t kNc = kPackNc;  // n-block width

struct PackBuffers {
    std::vector<float> a, b;
};

PackBuffers& tls_buffers() {
    static thread_local PackBuffers p;
    return p;
}

// B(k0:k1, j0:j1) → NR-wide panels, k-major inside each panel, zero-padded.
void pack_b(const float* b, std::int64_t ldb, std::int64_t k0, std::int64_t k1,
            std::int64_t j0, std::int64_t j1, std::vector<float>& buf) {
    const std::int64_t kc = k1 - k0, nc = j1 - j0;
    const std::int64_t panels = (nc + kNr - 1) / kNr;
    buf.resize(static_cast<std::size_t>(panels * kc * kNr));
    float* dst = buf.data();
    for (std::int64_t jp = 0; jp < panels; ++jp) {
        const std::int64_t jb = j0 + jp * kNr;
        const std::int64_t w = std::min(kNr, j1 - jb);
        for (std::int64_t p = k0; p < k1; ++p) {
            const float* src = b + p * ldb + jb;
            for (std::int64_t c = 0; c < w; ++c) dst[c] = src[c];
            for (std::int64_t c = w; c < kNr; ++c) dst[c] = 0.0f;
            dst += kNr;
        }
    }
}

// A(i0:i1, k0:k1) → MR-tall panels, k-major inside each panel, zero-padded.
// Writes panels * (k1-k0) * kMr floats at dst.
void pack_a_into(const float* a, std::int64_t lda, std::int64_t i0,
                 std::int64_t i1, std::int64_t k0, std::int64_t k1, float* dst) {
    const std::int64_t panels = (i1 - i0 + kMr - 1) / kMr;
    for (std::int64_t ip = 0; ip < panels; ++ip) {
        const std::int64_t ib = i0 + ip * kMr;
        const std::int64_t h = std::min(kMr, i1 - ib);
        for (std::int64_t p = k0; p < k1; ++p) {
            for (std::int64_t r = 0; r < h; ++r) dst[r] = a[(ib + r) * lda + p];
            for (std::int64_t r = h; r < kMr; ++r) dst[r] = 0.0f;
            dst += kMr;
        }
    }
}

void pack_a(const float* a, std::int64_t lda, std::int64_t i0, std::int64_t i1,
            std::int64_t k0, std::int64_t k1, std::vector<float>& buf) {
    const std::int64_t kc = k1 - k0, mc = i1 - i0;
    const std::int64_t panels = (mc + kMr - 1) / kMr;
    buf.resize(static_cast<std::size_t>(panels * kc * kMr));
    pack_a_into(a, lda, i0, i1, k0, k1, buf.data());
}

// Walks the B rows of a conv column panel: row p of the virtual im2col
// matrix is tap p % taps of channel p / taps, loaded at `row()` and masked
// with lanes `mask()` of the panel's mask block. The channel base is kept
// as an offset: after a k-block's last row it may point past the data.
struct TapCursor {
    const ConvB& b;
    std::int64_t xc;  // channel base, shifted to the panel's first column
    std::int64_t t;

    TapCursor(const ConvB& conv, std::int64_t p, std::int64_t jb)
        : b(conv), xc(p / conv.taps * conv.cols + jb), t(p % conv.taps) {}
    const float* row() const { return b.x + (xc + b.tap_offset[t]); }
    const std::uint32_t* mask(const std::uint32_t* panel_masks) const {
        return panel_masks + t * kNr;
    }
    void next() {
        if (++t == b.taps) {
            t = 0;
            xc += b.cols;
        }
    }
};

// One B lane: the activation bits ANDed with an all-ones or zero mask, so
// an out-of-image tap reads +0.0f exactly as an im2col zero would.
inline float masked(float v, std::uint32_t m) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits &= m;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

// C(mr×nr) += alpha · Apanel · Bpanel. The accumulator tile lives in
// registers (8 × 16-float vectors); the packed operands make every load
// contiguous. GNU vector extensions pin the accumulators to vector
// registers — a plain float[8][16] spills under gcc.
#if defined(__GNUC__) || defined(__clang__)
// The vector kernel spells out its kMr accumulators and arow lanes by hand;
// retuning kMr requires rewriting it.
static_assert(kMr == 8, "micro_kernel is hand-unrolled for kMr == 8");
using Vf = float __attribute__((vector_size(kNr * sizeof(float))));

// Vectors leave helpers through references: gcc flags every by-value
// 64-byte vector with a -Wpsabi note when AVX-512 is not enabled.
inline void load_vf(Vf& v, const float* p) {
    __builtin_memcpy(&v, p, sizeof(Vf));
}

void micro_kernel(std::int64_t kc, float alpha, const float* ap,
                  const float* bp, float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr) {
    Vf a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* arow = ap + p * kMr;
        Vf bv;
        load_vf(bv, bp + p * kNr);
        a0 += arow[0] * bv;
        a1 += arow[1] * bv;
        a2 += arow[2] * bv;
        a3 += arow[3] * bv;
        a4 += arow[4] * bv;
        a5 += arow[5] * bv;
        a6 += arow[6] * bv;
        a7 += arow[7] * bv;
    }
    const Vf acc[kMr] = {a0, a1, a2, a3, a4, a5, a6, a7};
    if (nr == kNr) {
        for (std::int64_t r = 0; r < mr; ++r) {
            float* cr = c + r * ldc;
            Vf cv;
            load_vf(cv, cr);
            cv += alpha * acc[r];
            __builtin_memcpy(cr, &cv, sizeof(Vf));
        }
    } else {
        for (std::int64_t r = 0; r < mr; ++r) {
            float* cr = c + r * ldc;
            for (std::int64_t j = 0; j < nr; ++j) cr[j] += alpha * acc[r][j];
        }
    }
}
// Writeback of one accumulator panel with the tile path's fused semantics:
// the first k-block stores (beta = 0, no C read or pre-zeroing pass), later
// k-blocks accumulate, and the last k-block applies the per-row bias and/or
// ReLU — so C is touched exactly once per k-block and the separate zeroing
// and epilogue passes over the conv output disappear.
inline void store_panel(const Vf* acc, float* c, std::int64_t ldc,
                        std::int64_t mr, std::int64_t nr, bool load_c,
                        const float* bias, bool relu) {
    const Vf zero{};
    for (std::int64_t r = 0; r < mr; ++r) {
        float* cr = c + r * ldc;
        if (nr == kNr) {
            Vf cv = acc[r];
            if (load_c) {
                Vf old;
                load_vf(old, cr);
                cv += old;
            }
            if (bias) cv += bias[r];
            if (relu) cv = cv > zero ? cv : zero;
            __builtin_memcpy(cr, &cv, sizeof(Vf));
            continue;
        }
        // Partial panel: scalar tail — a vector C load would read past the
        // row end.
        const float add = bias ? bias[r] : 0.0f;
        for (std::int64_t j = 0; j < nr; ++j) {
            float v = acc[r][j] + add + (load_c ? cr[j] : 0.0f);
            if (relu && v < 0.0f) v = 0.0f;
            cr[j] = v;
        }
    }
}

// A conv B row of one panel: kNr activation floats, out-of-image lanes
// zeroed (the vector form of masked()).
using Vu = std::uint32_t __attribute__((vector_size(sizeof(Vf))));

inline void load_b(Vf& out, const float* src, const std::uint32_t* mask) {
    Vu v, m;
    __builtin_memcpy(&v, src, sizeof(Vu));
    __builtin_memcpy(&m, mask, sizeof(Vu));
    v &= m;
    __builtin_memcpy(&out, &v, sizeof(Vf));
}

// Dual-panel conv kernel over the k-block rows [pc, pc + kc): one pass over
// the packed A panel feeds TWO adjacent B panels (an 8×32 register tile —
// 16 accumulators + 2 B vectors fit the 32 zmm registers). The single-panel
// kernel is load-bound (9 loads per 8 FMAs); amortizing the A broadcasts
// over two panels restores FMA-bound throughput. The first panel (columns
// jb…) must be full width; the second may be partial. m0/m1 are the two
// panels' mask blocks.
void micro_kernel_x2(std::int64_t pc, std::int64_t kc, const float* ap,
                     const ConvB& b, std::int64_t jb, const std::uint32_t* m0,
                     const std::uint32_t* m1, float* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr1, bool load_c,
                     const float* bias, bool relu) {
    Vf x0{}, x1{}, x2{}, x3{}, x4{}, x5{}, x6{}, x7{};
    Vf y0{}, y1{}, y2{}, y3{}, y4{}, y5{}, y6{}, y7{};
    TapCursor tap(b, pc, jb);
    for (std::int64_t p = 0; p < kc; ++p, tap.next()) {
        const float* arow = ap + p * kMr;
        const float* src = tap.row();
        Vf b0, b1;
        load_b(b0, src, tap.mask(m0));
        load_b(b1, src + kNr, tap.mask(m1));
        x0 += arow[0] * b0;
        y0 += arow[0] * b1;
        x1 += arow[1] * b0;
        y1 += arow[1] * b1;
        x2 += arow[2] * b0;
        y2 += arow[2] * b1;
        x3 += arow[3] * b0;
        y3 += arow[3] * b1;
        x4 += arow[4] * b0;
        y4 += arow[4] * b1;
        x5 += arow[5] * b0;
        y5 += arow[5] * b1;
        x6 += arow[6] * b0;
        y6 += arow[6] * b1;
        x7 += arow[7] * b0;
        y7 += arow[7] * b1;
    }
    const Vf acc0[kMr] = {x0, x1, x2, x3, x4, x5, x6, x7};
    const Vf acc1[kMr] = {y0, y1, y2, y3, y4, y5, y6, y7};
    store_panel(acc0, c, ldc, mr, kNr, load_c, bias, relu);
    store_panel(acc1, c + kNr, ldc, mr, nr1, load_c, bias, relu);
}

// Single-panel conv kernel with the same fused store semantics.
void micro_kernel_f(std::int64_t pc, std::int64_t kc, const float* ap,
                    const ConvB& b, std::int64_t jb, const std::uint32_t* m0,
                    float* c, std::int64_t ldc, std::int64_t mr,
                    std::int64_t nr, bool load_c, const float* bias,
                    bool relu) {
    Vf a0{}, a1{}, a2{}, a3{}, a4{}, a5{}, a6{}, a7{};
    TapCursor tap(b, pc, jb);
    for (std::int64_t p = 0; p < kc; ++p, tap.next()) {
        const float* arow = ap + p * kMr;
        Vf bv;
        load_b(bv, tap.row(), tap.mask(m0));
        a0 += arow[0] * bv;
        a1 += arow[1] * bv;
        a2 += arow[2] * bv;
        a3 += arow[3] * bv;
        a4 += arow[4] * bv;
        a5 += arow[5] * bv;
        a6 += arow[6] * bv;
        a7 += arow[7] * bv;
    }
    const Vf acc[kMr] = {a0, a1, a2, a3, a4, a5, a6, a7};
    store_panel(acc, c, ldc, mr, nr, load_c, bias, relu);
}
#else
void micro_kernel(std::int64_t kc, float alpha, const float* ap,
                  const float* bp, float* c, std::int64_t ldc, std::int64_t mr,
                  std::int64_t nr) {
    float acc[kMr][kNr] = {};
    for (std::int64_t p = 0; p < kc; ++p) {
        const float* arow = ap + p * kMr;
        const float* brow = bp + p * kNr;
        for (std::int64_t r = 0; r < kMr; ++r) {
            const float av = arow[r];
            for (std::int64_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
        }
    }
    for (std::int64_t r = 0; r < mr; ++r) {
        float* cr = c + r * ldc;
        for (std::int64_t j = 0; j < nr; ++j) cr[j] += alpha * acc[r][j];
    }
}

void micro_kernel_f(std::int64_t pc, std::int64_t kc, const float* ap,
                    const ConvB& b, std::int64_t jb, const std::uint32_t* m0,
                    float* c, std::int64_t ldc, std::int64_t mr,
                    std::int64_t nr, bool load_c, const float* bias,
                    bool relu) {
    float acc[kMr][kNr] = {};
    TapCursor tap(b, pc, jb);
    for (std::int64_t p = 0; p < kc; ++p, tap.next()) {
        const float* arow = ap + p * kMr;
        const float* brow = tap.row();
        const std::uint32_t* mask = tap.mask(m0);
        for (std::int64_t r = 0; r < kMr; ++r) {
            const float av = arow[r];
            for (std::int64_t j = 0; j < kNr; ++j)
                acc[r][j] += av * masked(brow[j], mask[j]);
        }
    }
    for (std::int64_t r = 0; r < mr; ++r) {
        float* cr = c + r * ldc;
        const float add = bias ? bias[r] : 0.0f;
        for (std::int64_t j = 0; j < nr; ++j) {
            float v = acc[r][j] + add + (load_c ? cr[j] : 0.0f);
            if (relu && v < 0.0f) v = 0.0f;
            cr[j] = v;
        }
    }
}

void micro_kernel_x2(std::int64_t pc, std::int64_t kc, const float* ap,
                     const ConvB& b, std::int64_t jb, const std::uint32_t* m0,
                     const std::uint32_t* m1, float* c, std::int64_t ldc,
                     std::int64_t mr, std::int64_t nr1, bool load_c,
                     const float* bias, bool relu) {
    micro_kernel_f(pc, kc, ap, b, jb, m0, c, ldc, mr, kNr, load_c, bias,
                   relu);
    micro_kernel_f(pc, kc, ap, b, jb + kNr, m1, c + kNr, ldc, mr, nr1,
                   load_c, bias, relu);
}
#endif

// Row-sparse path: for heavily pruned A (this project's core workload) the
// packed kernel's dense FLOPs lose to simply skipping zero weights. The ikj
// loop pays only for non-zero A entries; below kSparseThreshold density it
// beats the ~3× dense win of the packed kernel.
constexpr double kSparseThreshold = 0.25;
constexpr std::int64_t kSparseBlockK = 256;

void gemm_rows_sparse(std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                      std::int64_t k, float alpha, const float* a,
                      std::int64_t lda, const float* b, std::int64_t ldb,
                      float* c, std::int64_t ldc) {
    for (std::int64_t k0 = 0; k0 < k; k0 += kSparseBlockK) {
        const std::int64_t k1 = std::min(k, k0 + kSparseBlockK);
        for (std::int64_t i = m_lo; i < m_hi; ++i) {
            const float* ai = a + i * lda;
            float* ci = c + i * ldc;
            for (std::int64_t p = k0; p < k1; ++p) {
                const float aip = alpha * ai[p];
                if (aip == 0.0f) continue;
                const float* bp = b + p * ldb;
                for (std::int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
            }
        }
    }
}

// Whether A is sparse enough for the zero-skip path. The scan is O(m·k)
// against an O(m·n·k) multiply and bails out as soon as the non-zero count
// proves the matrix dense, so fully-dense callers pay ~kSparseThreshold of
// a full scan.
bool a_is_sparse(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda) {
    const std::int64_t limit = static_cast<std::int64_t>(
        kSparseThreshold * static_cast<double>(m * k));
    std::int64_t nnz = 0;
    for (std::int64_t i = 0; i < m; ++i) {
        const float* ai = a + i * lda;
        for (std::int64_t p = 0; p < k; ++p) nnz += ai[p] != 0.0f;
        if (nnz >= limit) return false;
    }
    return nnz < limit;
}

void scale_c_rows(std::int64_t m_lo, std::int64_t m_hi, std::int64_t n,
                  float beta, float* c, std::int64_t ldc) {
    for (std::int64_t i = m_lo; i < m_hi; ++i) {
        float* ci = c + i * ldc;
        if (beta == 0.0f) {
            std::fill(ci, ci + n, 0.0f);
        } else if (beta != 1.0f) {
            for (std::int64_t j = 0; j < n; ++j) ci[j] *= beta;
        }
    }
}

// Multiply the row panels [panel_lo, panel_hi) of the current (pc, jc) block
// against the shared packed B. Each executor packs its own A slice into its
// thread-local buffer.
void run_row_panels(std::int64_t panel_lo, std::int64_t panel_hi,
                    std::int64_t m, std::int64_t jc, std::int64_t j1,
                    std::int64_t pc, std::int64_t k1, float alpha,
                    const float* a, std::int64_t lda, const float* packed_b,
                    float* c, std::int64_t ldc) {
    const std::int64_t i_lo = panel_lo * kMr;
    const std::int64_t i_hi = std::min(m, panel_hi * kMr);
    if (i_lo >= i_hi) return;
    const std::int64_t kc = k1 - pc;
    std::vector<float>& abuf = tls_buffers().a;
    pack_a(a, lda, i_lo, i_hi, pc, k1, abuf);
    const std::int64_t n_panels = (j1 - jc + kNr - 1) / kNr;
    const std::int64_t m_panels = (i_hi - i_lo + kMr - 1) / kMr;
    for (std::int64_t ip = 0; ip < m_panels; ++ip) {
        const std::int64_t ib = i_lo + ip * kMr;
        const std::int64_t mr = std::min(kMr, i_hi - ib);
        const float* ap = abuf.data() + ip * kc * kMr;
        for (std::int64_t jp = 0; jp < n_panels; ++jp) {
            const std::int64_t jb = jc + jp * kNr;
            const std::int64_t nr = std::min(kNr, j1 - jb);
            micro_kernel(kc, alpha, ap, packed_b + jp * kc * kNr,
                         c + ib * ldc + jb, ldc, mr, nr);
        }
    }
}

void gemm_impl(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
               const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float beta, float* c, std::int64_t ldc,
               bool allow_parallel) {
    if (m <= 0 || n <= 0) return;
    scale_c_rows(0, m, n, beta, c, ldc);
    if (k <= 0 || alpha == 0.0f) return;

    if (m * n * k > (1 << 14) && a_is_sparse(m, k, a, lda)) {
        XS_COUNT("gemm.sparse_takes", 1);
        const bool parallel = allow_parallel && util::worker_count() > 1 &&
                              m > 1 && m * n * k > (1 << 18);
        if (parallel) {
            util::parallel_for_chunks(
                0, static_cast<std::size_t>(m),
                [&](std::size_t lo, std::size_t hi) {
                    gemm_rows_sparse(static_cast<std::int64_t>(lo),
                                     static_cast<std::int64_t>(hi), n, k, alpha,
                                     a, lda, b, ldb, c, ldc);
                });
        } else {
            gemm_rows_sparse(0, m, n, k, alpha, a, lda, b, ldb, c, ldc);
        }
        return;
    }

    std::vector<float>& bbuf = tls_buffers().b;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    for (std::int64_t jc = 0; jc < n; jc += kNc) {
        const std::int64_t j1 = std::min(n, jc + kNc);
        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            pack_b(b, ldb, pc, k1, jc, j1, bbuf);
            const float* packed_b = bbuf.data();
            const bool parallel =
                allow_parallel && row_panels > 1 && util::worker_count() > 1 &&
                m * (j1 - jc) * (k1 - pc) > (1 << 18);
            if (parallel) {
                util::parallel_for_chunks(
                    0, static_cast<std::size_t>(row_panels),
                    [&](std::size_t lo, std::size_t hi) {
                        run_row_panels(static_cast<std::int64_t>(lo),
                                       static_cast<std::int64_t>(hi), m, jc, j1,
                                       pc, k1, alpha, a, lda, packed_b, c, ldc);
                    });
            } else {
                run_row_panels(0, row_panels, m, jc, j1, pc, k1, alpha, a, lda,
                               packed_b, c, ldc);
            }
        }
    }
}

}  // namespace

void gemm_serial(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const float* a, std::int64_t lda, const float* b,
                 std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
    gemm_impl(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, false);
}

void gemm_pack_a(std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, PackedGemmA& out) {
    out.m = m;
    out.k = k;
    // Density decided once per pack instead of once per multiply; a pruned
    // weight matrix keeps the zero-skip multiply and needs no panels.
    out.sparse = m * k > (1 << 10) && a_is_sparse(m, k, a, lda);
    if (out.sparse) {
        XS_COUNT("gemm.pack_a.sparse", 1);
        out.panels.clear();
        return;
    }
    XS_COUNT("gemm.pack_a.dense", 1);
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    out.panels.resize(static_cast<std::size_t>(row_panels * kMr * k));
    // Block layout matches the multiply loop: consecutive k-blocks, each
    // holding every row panel for that k range.
    for (std::int64_t pc = 0; pc < k; pc += kKc) {
        const std::int64_t k1 = std::min(k, pc + kKc);
        pack_a_into(a, lda, 0, m, pc, k1,
                    out.panels.data() + row_panels * kMr * pc);
    }
}

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc) {
    gemm_impl(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, true);
}

std::int64_t conv_b_tables(std::int64_t h, std::int64_t w, std::int64_t k,
                           std::vector<std::int64_t>& tap_offset,
                           std::vector<std::uint32_t>& lane_mask) {
    const std::int64_t hw = h * w, pad = (k - 1) / 2, taps = k * k;
    const std::int64_t panels = hw / std::gcd(hw, kNr);  // lcm(hw, kNr)/kNr
    tap_offset.resize(static_cast<std::size_t>(taps));
    for (std::int64_t ki = 0; ki < k; ++ki)
        for (std::int64_t kj = 0; kj < k; ++kj)
            tap_offset[static_cast<std::size_t>(ki * k + kj)] =
                (ki - pad) * w + (kj - pad);
    lane_mask.resize(static_cast<std::size_t>(panels * taps * kNr));
    // (oi, oj): output pixel of column pp·kNr + l inside its image.
    std::int64_t oi = 0, oj = 0;
    for (std::int64_t pp = 0; pp < panels; ++pp) {
        std::uint32_t* block = lane_mask.data() + pp * taps * kNr;
        for (std::int64_t l = 0; l < kNr; ++l) {
            for (std::int64_t ki = 0; ki < k; ++ki) {
                const std::int64_t ii = oi + ki - pad;
                for (std::int64_t kj = 0; kj < k; ++kj) {
                    const std::int64_t jj = oj + kj - pad;
                    const bool inside = ii >= 0 && ii < h && jj >= 0 && jj < w;
                    block[(ki * k + kj) * kNr + l] = inside ? ~0u : 0u;
                }
            }
            if (++oj == w) {
                oj = 0;
                if (++oi == h) oi = 0;
            }
        }
    }
    return panels;
}

void gemm_conv_tiles(const PackedGemmA& pa, const float* a_raw,
                     std::int64_t lda, const ConvB& b, float* c,
                     std::int64_t ldc, const float* bias, bool relu,
                     std::int64_t tile_lo, std::int64_t tile_hi) {
    const std::int64_t m = pa.m, k = pa.k, n = b.cols;
    const std::int64_t row_panels = (m + kMr - 1) / kMr;
    const std::int64_t mask_stride = b.taps * kNr;  // per panel position
    // Mask block of the panel after the one at `pp`, wrapping at the period.
    const auto next_panel = [&b](std::int64_t pp) {
        return pp + 1 == b.mask_panels ? 0 : pp + 1;
    };
    for (std::int64_t t = tile_lo; t < tile_hi; ++t) {
        const std::int64_t nb = t / row_panels;  // n-block index
        const std::int64_t ip = t % row_panels;  // row-panel index
        const std::int64_t jc = nb * kNc;
        const std::int64_t j1 = std::min(n, jc + kNc);
        const std::int64_t ib = ip * kMr;
        const std::int64_t i_hi = std::min(m, ib + kMr);
        const std::int64_t mr = i_hi - ib;
        const std::int64_t blk_panels = (j1 - jc + kNr - 1) / kNr;
        const std::int64_t pp0 = (jc / kNr) % b.mask_panels;

        if (pa.sparse) {
            // Zero-skip kernel: pays only for non-zero weights (pruned
            // layers). Each C element accumulates its non-zero taps in
            // ascending p, exactly like the dense k-block order.
            for (std::int64_t i = ib; i < i_hi; ++i) {
                const float* ai = a_raw + i * lda;
                float* ci = c + i * ldc + jc;
                std::fill(ci, ci + (j1 - jc), 0.0f);
                TapCursor tap(b, 0, jc);
                for (std::int64_t p = 0; p < k; ++p, tap.next()) {
                    const float aip = ai[p];
                    if (aip == 0.0f) continue;
                    const float* brow = tap.row();
                    std::int64_t pp = pp0;
                    for (std::int64_t jp = 0; jp < blk_panels; ++jp) {
                        const float* bp = brow + jp * kNr;
                        const std::uint32_t* mask =
                            tap.mask(b.lane_mask + pp * mask_stride);
                        float* cp = ci + jp * kNr;
                        const std::int64_t nr =
                            std::min(kNr, j1 - jc - jp * kNr);
                        for (std::int64_t l = 0; l < nr; ++l)
                            cp[l] += aip * masked(bp[l], mask[l]);
                        pp = next_panel(pp);
                    }
                }
                if (bias != nullptr || relu) {
                    const float add = bias ? bias[i] : 0.0f;
                    if (relu) {
                        for (std::int64_t j = 0; j < j1 - jc; ++j)
                            ci[j] = std::max(ci[j] + add, 0.0f);
                    } else {
                        for (std::int64_t j = 0; j < j1 - jc; ++j)
                            ci[j] += add;
                    }
                }
            }
            continue;
        }

        for (std::int64_t pc = 0; pc < k; pc += kKc) {
            const std::int64_t k1 = std::min(k, pc + kKc);
            const std::int64_t kc = k1 - pc;
            // Fused store semantics: the first k-block stores (no C read or
            // zeroing pass), later blocks accumulate, and the last applies
            // bias/ReLU — C is touched exactly once per k-block.
            const bool load_c = pc != 0;
            const bool last = k1 == k;
            const float* bias_row = (last && bias) ? bias + ib : nullptr;
            const bool relu_here = last && relu;
            const float* ap =
                pa.panels.data() + row_panels * kMr * pc + ip * kc * kMr;
            std::int64_t pp = pp0;
            std::int64_t jp = 0;
            for (; jp + 1 < blk_panels; jp += 2) {
                const std::int64_t jb = jc + jp * kNr;
                const std::int64_t nr1 = std::min(kNr, j1 - jb - kNr);
                const std::int64_t pp1 = next_panel(pp);
                micro_kernel_x2(pc, kc, ap, b, jb,
                                b.lane_mask + pp * mask_stride,
                                b.lane_mask + pp1 * mask_stride,
                                c + ib * ldc + jb, ldc, mr, nr1, load_c,
                                bias_row, relu_here);
                pp = next_panel(pp1);
            }
            if (jp < blk_panels) {
                const std::int64_t jb = jc + jp * kNr;
                const std::int64_t nr = std::min(kNr, j1 - jb);
                micro_kernel_f(pc, kc, ap, b, jb,
                               b.lane_mask + pp * mask_stride,
                               c + ib * ldc + jb, ldc, mr, nr, load_c,
                               bias_row, relu_here);
            }
        }
    }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
    check(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
    check(a.dim(1) == b.dim(0), "matmul: inner dimensions differ: " +
                                    shape_to_string(a.shape()) + " x " +
                                    shape_to_string(b.shape()));
    Tensor c({a.dim(0), b.dim(1)});
    gemm(a.dim(0), b.dim(1), a.dim(1), 1.0f, a.data(), a.dim(1), b.data(),
         b.dim(1), 0.0f, c.data(), c.dim(1));
    return c;
}

}  // namespace xs::tensor
