// Mitigation demo: C/F-pruned VGG11 mapped onto non-ideal crossbars with
// (a) no mitigation, (b) crossbar-column rearrangement R, and (c) WCT —
// the paper's §VI strategies. A thin SweepSpec driver: the mitigation axis
// is the grid, repeats aggregate to mean±std, and interrupted runs resume
// (results/mitigation_demo.csv).
//
//   ./mitigation_demo [--sparsity=0.8] [--xbar=64] [--wct-percentile=0.9]
//                     [--backends=circuit,fast] [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    // --sparsity is this demo's historical flag name; it wins over the
    // shared --sparsity10 default.
    const double sparsity = flags.get_double("sparsity", ctx.sparsity_for(10));

    // Start from the shared axis parser (picks up --backends & friends),
    // then pin the axes this demo owns.
    sweep::SweepSpec spec = sweep::parse_sweep_spec(flags);
    spec.variants = {flags.get_string("variant", "vgg11")};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kChannelFilter, sparsity}};
    spec.mitigations = {{/*wct=*/false, /*rearrange=*/false},
                        {/*wct=*/false, /*rearrange=*/true},
                        {/*wct=*/true, /*rearrange=*/false}};
    spec.sizes = {flags.get_int("xbar", 64)};
    spec.sigmas = {ctx.sigma()};
    spec.repeats = ctx.eval_repeats();

    sweep::SweepOptions opts;
    opts.resume = flags.get_bool("resume", false);
    opts.csv_name = "mitigation_demo.csv";
    opts.manifest_name = "mitigation_demo_manifest.jsonl";

    sweep::SweepRunner runner(ctx, spec, opts);
    const sweep::SweepSummary summary = runner.run();

    std::printf("C/F-pruned %s (s=%.2f) on %lldx%lld crossbars\n",
                spec.variants.front().c_str(), sparsity,
                static_cast<long long>(spec.sizes.front()),
                static_cast<long long>(spec.sizes.front()));
    util::TextTable table({"mitigation", "backend", "software", "crossbar", "NF"});
    for (const sweep::GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        table.add_row({row.cell.mitigation.name(),
                       xbar::backend_name(row.cell.backend),
                       util::fmt(row.software_acc) + "%",
                       util::fmt(row.acc_mean) + "±" + util::fmt(row.acc_std) + "%",
                       util::fmt(row.nf_mean, 4)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(aggregates written to %s)\n", summary.csv_path.c_str());
    return 0;
}
