// Fig. 3(d): average non-ideality factor (NF) of the unpruned vs C/F-pruned
// VGG11/CIFAR10 weight matrices when the crossbar grows from 32×32 to 64×64.
// Paper shape: NF grows with crossbar size for both; the growth *rate* is
// higher for the unpruned network (it maps onto many more crossbars).
//
// Thin driver over the declarative sweep engine in NF-only mode
// (SweepSpec::nf_only): measure_nf with variation disabled is deterministic,
// so the grid runs with repeats = 1 and the figure CSV is derived from the
// sweep rows instead of a hand-written loop.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <map>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const double s = ctx.sparsity_for(10);

    sweep::SweepSpec spec;
    spec.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, s}};
    spec.sizes = {32, 64};
    spec.sigmas = {ctx.sigma()};
    spec.nf_only = true;  // no inference pass, no variation → deterministic
    spec.repeats = 1;

    sweep::SweepOptions opts;
    opts.csv_name = "fig3d_sweep.csv";
    opts.manifest_name = "fig3d_manifest.jsonl";
    opts.resume = flags.get_bool("resume", false);

    std::printf("Fig 3(d): average NF, unpruned vs C/F (s=%.2f) VGG11/CIFAR10\n\n",
                s);
    const sweep::SweepSummary summary =
        sweep::SweepRunner(ctx, spec, opts).run();

    // Historical figure CSV plus the NF @32→@64 growth table, from the
    // aggregated rows (expansion order: scheme outer, size inner).
    util::CsvWriter csv(ctx.csv_path("fig3d_nf_vs_size.csv"),
                        {"scheme", "xbar_size", "nf_mean", "tiles"});
    std::map<std::string, std::map<std::int64_t, const sweep::GroupRow*>> by;
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        const char* label = row.cell.prune.method == prune::Method::kNone
                                ? "unpruned"
                                : "C/F";
        csv.row(label, row.cell.xbar_size, row.nf_mean, row.tiles);
        by[label][row.cell.xbar_size] = &row;
    }
    csv.flush();

    util::TextTable table({"scheme", "NF @32x32", "NF @64x64", "delta",
                           "tiles@32", "tiles@64"});
    for (const char* label : {"unpruned", "C/F"}) {
        const auto& sizes = by[label];
        if (sizes.count(32) == 0 || sizes.count(64) == 0) continue;
        const sweep::GroupRow& r32 = *sizes.at(32);
        const sweep::GroupRow& r64 = *sizes.at(64);
        table.add_row({label, util::fmt(r32.nf_mean, 4), util::fmt(r64.nf_mean, 4),
                       util::fmt(r64.nf_mean - r32.nf_mean, 4),
                       std::to_string(r32.tiles), std::to_string(r64.tiles)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(series written to results/fig3d_nf_vs_size.csv)\n");
    return 0;
}
