// Unit tests for the benchmark's own arithmetic: the computed GEMM FLOP
// count, trace self time, and the fidelity comparison.
#include "fidelity.h"
#include "ledger.h"

#include "nn/conv2d.h"
#include "nn/layers_basic.h"
#include "nn/linear.h"
#include "nn/vgg.h"

#include <cmath>
#include <cstdio>
#include <memory>

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                    \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                         __LINE__, #cond);                              \
            ++g_failures;                                               \
        }                                                               \
    } while (0)

bool near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

void test_conv_flops_hand_count() {
    // One 3x3 conv, 3 -> 8 channels, stride 1, pad 1, on a 32x32 image:
    // every one of the 8 x 32 x 32 outputs is a dot product of length
    // 3 x 3 x 3 = 27, i.e. 27 multiply-adds = 54 FLOPs.
    //   8 * 32 * 32 * 54 = 442368
    xs::util::Rng rng(1);
    xs::nn::Sequential model;
    model.add(std::make_unique<xs::nn::Conv2d>(3, 8, 3, 1, 1, rng), "conv1");
    EXPECT(near(perfbench::gemm_flops_per_image(model, 32), 442368.0));

    // A 2x2 pool then a second conv 8 -> 16 at 16x16: 16 * 16 * 16 * 2 * 72.
    model.add(std::make_unique<xs::nn::MaxPool2d>(2), "pool1");
    model.add(std::make_unique<xs::nn::Conv2d>(8, 16, 3, 1, 1, rng), "conv2");
    EXPECT(near(perfbench::gemm_flops_per_image(model, 32), 442368.0 + 589824.0));

    // A strided conv: 16 -> 4, k=3, stride 2, pad 1 on 16x16 gives 8x8 outputs.
    model.add(std::make_unique<xs::nn::Conv2d>(16, 4, 3, 2, 1, rng), "conv3");
    EXPECT(near(perfbench::gemm_flops_per_image(model, 32),
                442368.0 + 589824.0 + 4.0 * 64 * 2 * 144));
}

void test_vgg11_flops_cover_every_gemm_layer() {
    xs::nn::VggConfig cfg;
    cfg.width = 0.125;
    xs::util::Rng rng(1);
    const xs::nn::Sequential model = xs::nn::build_vgg(cfg, rng);
    // Summing a hand count over vgg_channels() with the pool positions of
    // VGG11 ("64 M 128 M 256 256 M 512 512 M 512 512 M").
    const std::vector<std::int64_t> ch = xs::nn::vgg_channels(cfg);
    const int spatial[] = {32, 16, 8, 8, 4, 4, 2, 2};
    double expect = 0.0;
    std::int64_t in = 3;
    for (std::size_t i = 0; i < ch.size(); ++i) {
        expect += 2.0 * static_cast<double>(ch[i] * in * 9 * spatial[i] * spatial[i]);
        in = ch[i];
    }
    expect += 2.0 * static_cast<double>(in * 10);  // classifier on the 1x1 map
    EXPECT(ch.size() == 8);
    EXPECT(near(perfbench::gemm_flops_per_image(model, 32), expect));
}

void test_self_time() {
    // Thread 1: parent [0, 100) with children [10, 30) and [40, 90), the
    // latter holding a grandchild [50, 60). Thread 2: one span [0, 20).
    std::vector<perfbench::TraceEvent> ev = {
        {"parent", 0, 100, 1, 1}, {"child", 10, 20, 1, 1}, {"child", 40, 50, 1, 1},
        {"leaf", 50, 10, 1, 1},   {"parent", 0, 20, 1, 2},
    };
    const auto self = perfbench::self_seconds_by_name(ev);
    EXPECT(near(self.at("parent"), (30.0 + 20.0) * 1e-6));
    EXPECT(near(self.at("child"), (20.0 + 40.0) * 1e-6));
    EXPECT(near(self.at("leaf"), 10.0 * 1e-6));

    perfbench::SpanLog log;
    const int outer = log.open("outer");
    log.close(log.open("inner"));
    log.close(outer);
    EXPECT(log.spans()[0].parent == -1 && log.spans()[1].parent == 0);
    EXPECT(log.spans()[1].end_ns <= log.spans()[0].end_ns);
}

void test_fidelity() {
    const std::string header =
        "variant,classes,method,sparsity,mitigation,backend,xbar_size,sigma,parasitic_scale,"
        "p_stuck_min,p_stuck_max,repeats,software_acc,acc_mean,acc_std,nf_mean,nf_std,"
        "energy_pj,tiles,solver_failures\n";
    const std::string row16 = "vgg11,10,unpruned,0,none,circuit,16,0.1,1,0,0,4,75.5,64.0,1,0.011500,0,1.5,569,0\n";
    const std::string row32 = "vgg11,10,unpruned,0,none,circuit,32,0.1,1,0,0,4,75.5,62.0,1,0.025500,0,1.5,146,0\n";
    perfbench::CsvTable ref, same, off, missing, bad_tiles;
    EXPECT(perfbench::parse_csv(header + row16 + row32, ref));
    EXPECT(perfbench::parse_csv(header + row16 + row32, same));
    EXPECT(perfbench::parse_csv(
        header + row16 + "vgg11,10,unpruned,0,none,circuit,32,0.1,1,0,0,4,75.5,64.5,1,0.025510,0,1.5,146,0\n",
        off));
    EXPECT(perfbench::parse_csv(header + row16, missing));
    EXPECT(perfbench::parse_csv(
        header + row16 + "vgg11,10,unpruned,0,none,circuit,32,0.1,1,0,0,4,75.5,62.0,1,0.025500,0,1.5,147,0\n",
        bad_tiles));
    const perfbench::FidelityTolerance tol{1.0, 1e-3, 2.0};

    const perfbench::FidelityReport ok = perfbench::check_fidelity(same, ref, tol);
    EXPECT(ok.ok() && ok.acc_err_pp == 0.0 && ok.nf_err_rel == 0.0);

    const perfbench::FidelityReport acc = perfbench::check_fidelity(off, ref, tol);
    EXPECT(!acc.ok() && acc.groups_failed == 1 && acc.cells_failed == 4);
    EXPECT(near(acc.acc_err_pp, 2.5));
    EXPECT(acc.nf_err_rel > 3e-4 && acc.nf_err_rel < 4e-4);
    EXPECT(near(acc.grid_acc_err_pp, 1.25));
    EXPECT(perfbench::check_fidelity(off, ref, {3.0, 1e-3, 3.0}).ok());
    // Within every per-row band, but the grid mean moved.
    const perfbench::FidelityReport shifted = perfbench::check_fidelity(off, ref, {3.0, 1e-3, 1.0});
    EXPECT(!shifted.ok() && shifted.cells_failed == 8);

    EXPECT(perfbench::check_fidelity(missing, ref, tol).cells_failed == 4);
    EXPECT(!perfbench::check_fidelity(bad_tiles, ref, tol).ok());
    EXPECT(!perfbench::check_fidelity(ref, missing, tol).ok());  // extra row
}

}  // namespace

int main() {
    test_conv_flops_hand_count();
    test_vgg11_flops_cover_every_gemm_layer();
    test_self_time();
    test_fidelity();
    if (g_failures == 0) std::printf("perfbench_test: all checks passed\n");
    return g_failures == 0 ? 0 : 1;
}
