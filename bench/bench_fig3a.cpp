// Fig. 3(a): inference accuracy vs crossbar size for the unpruned and
// structure-pruned (C/F, XCS, XRS; s = 0.8) VGG11 on the CIFAR10-like set.
//
// Paper shape: all curves fall as the crossbar grows; the pruned curves fall
// faster than the unpruned one (≈ −21 % unpruned vs −24…−39 % pruned at
// 64×64 relative to software).
//
// A thin SweepSpec driver (DESIGN.md §7): the scheme × size grid runs
// in parallel and resumable, Monte-Carlo repeats aggregate to mean±std, and the
// aggregate CSV lands in results/fig3a_<variant>_cifar10.csv.
//
//   ./bench_fig3a [--variant=vgg11] [--sizes=16,32,64] [--backends=circuit]
//                 [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/flags.h"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const std::string variant = flags.get_string("variant", "vgg11");
    const double s = ctx.sparsity_for(10);

    sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    spec.variants = {variant};
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
    opts.csv_name = "fig3a_" + variant + "_cifar10.csv";
    opts.manifest_name = "fig3a_" + variant + "_cifar10_manifest.jsonl";

    std::printf("Fig 3(a): %s / CIFAR10-like, s=%.2f — accuracy vs crossbar size\n\n",
                variant.c_str(), s);
    sweep::SweepRunner runner(ctx, spec, opts);
    const sweep::SweepSummary summary = runner.run();

    std::printf("\n%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}
