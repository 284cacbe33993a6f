// Fig. 3(c): accuracy vs crossbar size for unpruned and structure-pruned
// (s = 0.8) VGG16 on the CIFAR10-like set — same protocol as Fig. 3(a) with
// the deeper network. Paper shape: same ordering at 16/32; at 64×64 the C/F
// curve can cross above the unpruned one.
//
// A thin SweepSpec driver (DESIGN.md §7): parallel, resumable, repeats
// aggregated to mean±std (results/fig3c_vgg16_cifar10.csv).
//
//   ./bench_fig3c [--sizes=16,32,64] [--backends=circuit] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/flags.h"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const double s = ctx.sparsity_for(10);

    sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    spec.variants = {"vgg16"};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, s},
                   {prune::Method::kXbarColumn, s},
                   {prune::Method::kXbarRow, s}};
    spec.mitigations = {{}};
    spec.sizes = ctx.sizes();
    spec.sigmas = {ctx.sigma()};
    spec.repeats = ctx.eval_repeats();

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.csv_name = "fig3c_vgg16_cifar10.csv";
    opts.manifest_name = "fig3c_vgg16_cifar10_manifest.jsonl";

    std::printf("Fig 3(c): VGG16 / CIFAR10-like, s=%.2f — accuracy vs crossbar size\n\n",
                s);
    sweep::SweepRunner runner(ctx, spec, opts);
    const sweep::SweepSummary summary = runner.run();

    std::printf("\n%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}
