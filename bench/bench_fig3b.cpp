// Fig. 3(b): accuracy vs crossbar size for C/F-pruned VGG11/CIFAR10 at
// different sparsity ratios. Paper shape: lower sparsity → smaller
// non-ideal accuracy degradation.
//
// Thin driver over the declarative sweep engine (sweep/runner.h): the
// sparsity × size grid is a SweepSpec, so the bench inherits parallel
// execution, the resumable manifest, and the deterministic aggregate — the
// figure CSV is derived from the sweep rows instead of a hand-written loop.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <vector>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);

    sweep::SweepSpec spec;
    spec.prunes.clear();
    for (const auto pct : flags.get_int_list("sparsities-pct", {50, 65, 80}))
        spec.prunes.push_back({prune::Method::kChannelFilter,
                               static_cast<double>(pct) / 100.0});
    spec.sizes = ctx.sizes();
    spec.sigmas = {ctx.sigma()};
    spec.repeats = ctx.eval_repeats();

    sweep::SweepOptions opts;
    opts.csv_name = "fig3b_sweep.csv";
    opts.manifest_name = "fig3b_manifest.jsonl";
    opts.resume = flags.get_bool("resume", false);

    std::printf("Fig 3(b): C/F-pruned VGG11 / CIFAR10-like — sparsity sweep\n\n");
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    // Historical figure CSV, one row per (sparsity, size) in grid order.
    util::CsvWriter csv(ctx.csv_path("fig3b_vgg11_cifar10_sparsity.csv"),
                        {"sparsity", "xbar_size", "software_acc", "crossbar_acc",
                         "nf_mean"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        csv.row(row.cell.prune.sparsity, row.cell.xbar_size, row.software_acc,
                row.acc_mean, row.nf_mean);
    }
    csv.flush();

    std::printf("%s\n", sweep::accuracy_vs_size_table(summary).c_str());
    std::printf("(series written to results/fig3b_vgg11_cifar10_sparsity.csv)\n");
    return 0;
}
