// Fig. 4(e,f): accuracy vs crossbar size for unpruned, C/F-pruned, and
// WCT + C/F-pruned VGG11 — CIFAR10-like (e, s = 0.8) and CIFAR100-like
// (f, s = 0.6). Paper shape: the WCT model holds its accuracy nearly flat
// across crossbar sizes and beats the unpruned model on large crossbars
// (~6–7 % at 64×64 / 32×32).
//
// Thin driver over the declarative sweep engine (sweep/runner.h): each
// scheme runs as its own SweepSpec over the size axis — the scheme set is
// not a cartesian product (WCT applies to the pruned model only) — so the
// bench inherits parallel execution, resumable manifests, and deterministic
// mean±std aggregation; the figure CSV is derived from the sweep rows
// instead of a hand-written evaluation loop.
//
//   ./bench_fig4ef [--sizes=16,32,64] [--resume]
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

    util::CsvWriter csv(ctx.csv_path("fig4ef_wct.csv"),
                        {"dataset", "scheme", "xbar_size", "software_acc",
                         "crossbar_acc", "nf_mean"});

    for (const std::int64_t classes : {10, 100}) {
        const double s = ctx.sparsity_for(classes);
        std::printf(
            "Fig 4(%s): VGG11 / CIFAR%lld-like, s=%.2f — WCT mitigation\n\n",
            classes == 10 ? "e" : "f", static_cast<long long>(classes), s);

        struct Scheme {
            const char* label;
            const char* slug;  // manifest/CSV file name component
            sweep::PruneSetting prune;
            sweep::Mitigation mitigation;
        };
        const Scheme schemes[] = {
            {"unpruned", "unpruned", {prune::Method::kNone, 0.0}, {}},
            {"C/F", "cf", {prune::Method::kChannelFilter, s}, {}},
            {"WCT + C/F", "wct_cf", {prune::Method::kChannelFilter, s},
             {true, false}},
        };

        std::vector<std::string> headers{"scheme", "software"};
        for (const auto size : ctx.sizes())
            headers.push_back(std::to_string(size) + "x" + std::to_string(size));
        util::TextTable table(headers);

        for (const Scheme& scheme : schemes) {
            sweep::SweepSpec spec;
            spec.class_counts = {classes};
            spec.prunes = {scheme.prune};
            spec.mitigations = {scheme.mitigation};
            spec.sizes = ctx.sizes();
            spec.sigmas = {ctx.sigma()};
            spec.repeats = ctx.eval_repeats();

            sweep::SweepOptions opts;
            opts.resume = flags.get_bool("resume", false);
            opts.csv_name = "fig4ef_c" + std::to_string(classes) + "_" +
                            scheme.slug + "_sweep.csv";
            opts.manifest_name = "fig4ef_c" + std::to_string(classes) + "_" +
                                 scheme.slug + "_manifest.jsonl";

            const sweep::SweepSummary summary =
                sweep::SweepRunner(ctx, spec, opts).run();

            std::vector<std::string> cells{scheme.label, "--"};
            for (const sweep::GroupRow& row : summary.rows) {
                if (!row.complete()) {
                    cells.push_back("--");
                    continue;
                }
                cells[1] = util::fmt(row.software_acc) + "%";
                csv.row(classes, scheme.label, row.cell.xbar_size,
                        row.software_acc, row.acc_mean, row.nf_mean);
                cells.push_back(util::fmt(row.acc_mean) + "%");
            }
            table.add_row(cells);
        }
        std::printf("%s\n", table.str().c_str());
    }
    std::printf("(series written to results/fig4ef_wct.csv)\n");
    return 0;
}
