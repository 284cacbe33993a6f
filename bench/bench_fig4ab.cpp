// Fig. 4(a,b): accuracy vs crossbar size for unpruned, C/F-pruned, and
// C/F-pruned + column rearrangement R — VGG11 (a) and VGG16 (b) on the
// CIFAR10-like set (s = 0.8). Paper shape: R recovers several percent of the
// C/F accuracy loss, most visibly on larger crossbars (~9 % for VGG11 at
// 64×64, ~6 % for VGG16 at 32×32).
//
// Thin driver over the declarative sweep engine (sweep/runner.h): each
// scheme runs as its own SweepSpec over the size axis — the scheme set is
// not a cartesian product (the paper applies R to the pruned model only) —
// so the bench inherits parallel execution, resumable manifests, and
// deterministic mean±std aggregation; the figure CSV is derived from the
// sweep rows instead of a hand-written evaluation loop.
//
//   ./bench_fig4ab [--variants=vgg11,vgg16] [--sizes=16,32,64]
//                  [--resume]
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <sstream>
#include <vector>

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const double s = ctx.sparsity_for(10);

    util::CsvWriter csv(ctx.csv_path("fig4ab_rearrangement_cifar10.csv"),
                        {"variant", "scheme", "xbar_size", "software_acc",
                         "crossbar_acc", "nf_mean"});

    std::vector<std::string> variants;
    {
        std::stringstream ss(flags.get_string("variants", "vgg11,vgg16"));
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty()) variants.push_back(item);
    }

    struct Scheme {
        const char* label;
        const char* slug;  // manifest/CSV file name component
        sweep::PruneSetting prune;
        sweep::Mitigation mitigation;
    };
    const Scheme schemes[] = {
        {"unpruned", "unpruned", {prune::Method::kNone, 0.0}, {}},
        {"C/F", "cf", {prune::Method::kChannelFilter, s}, {}},
        {"C/F + R", "cf_r", {prune::Method::kChannelFilter, s}, {false, true}},
    };

    for (const std::string& variant : variants) {
        std::printf("Fig 4(%s): %s / CIFAR10-like, s=%.2f\n\n",
                    variant == "vgg11" ? "a" : "b", variant.c_str(), s);

        std::vector<std::string> headers{"scheme", "software"};
        for (const auto size : ctx.sizes())
            headers.push_back(std::to_string(size) + "x" + std::to_string(size));
        util::TextTable table(headers);

        for (const Scheme& scheme : schemes) {
            sweep::SweepSpec spec;
            spec.variants = {variant};
            spec.class_counts = {10};
            spec.prunes = {scheme.prune};
            spec.mitigations = {scheme.mitigation};
            spec.sizes = ctx.sizes();
            spec.sigmas = {ctx.sigma()};
            spec.repeats = ctx.eval_repeats();

            sweep::SweepOptions opts;
            opts.resume = flags.get_bool("resume", false);
            opts.csv_name =
                "fig4ab_" + variant + "_" + scheme.slug + "_sweep.csv";
            opts.manifest_name =
                "fig4ab_" + variant + "_" + scheme.slug + "_manifest.jsonl";

            const sweep::SweepSummary summary =
                sweep::SweepRunner(ctx, spec, opts).run();

            std::vector<std::string> cells{scheme.label, "--"};
            for (const sweep::GroupRow& row : summary.rows) {
                if (!row.complete()) {
                    cells.push_back("--");
                    continue;
                }
                cells[1] = util::fmt(row.software_acc) + "%";
                csv.row(variant, scheme.label, row.cell.xbar_size,
                        row.software_acc, row.acc_mean, row.nf_mean);
                cells.push_back(util::fmt(row.acc_mean) + "%");
            }
            table.add_row(cells);
        }
        std::printf("%s\n", table.str().c_str());
    }
    std::printf("(series written to results/fig4ab_rearrangement_cifar10.csv)\n");
    return 0;
}
