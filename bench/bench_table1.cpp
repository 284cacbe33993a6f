// Table I: software accuracies of the trained model variants, and the
// crossbar-compression-rate on 32×32 crossbars.
//
// A thin SweepSpec driver (DESIGN.md §7), like the figure benches: the
// variant × scheme grid runs one nf-only sweep per class count — parallel,
// resumable, manifested — and the table's software accuracies come from the
// sweep's aggregate rows (the sweep engine resolves the same width-scaled
// trained models through the on-disk cache). Compression rates are purely
// structural — they depend only on the pruning masks and matrix shapes — so
// they are computed at the paper's full network width (--compression-width,
// default 1.0) from freshly pruned-at-init models, which reproduces the
// magnitude of the paper's numbers (C/F ≈ 19.7× at s = 0.8, XCS/XRS ≈ 4–6×).
//
//   ./bench_table1 [--variants=vgg11,vgg16] [--compression-xbar=32]
//                  [--resume]
#include "core/experiments.h"
#include "map/compression.h"
#include "nn/vgg.h"
#include "prune/prune.h"
#include "sweep/runner.h"
#include "util/csv.h"
#include "util/flags.h"

#include <cstdio>
#include <map>
#include <sstream>

namespace {

double structural_compression(const std::string& variant, std::int64_t classes,
                              xs::prune::Method method, double sparsity,
                              double width, std::int64_t xbar_size) {
    using namespace xs;
    nn::VggConfig vc;
    vc.variant = variant;
    vc.num_classes = classes;
    vc.width = width;
    util::Rng rng(1234);
    nn::Sequential model = nn::build_vgg(vc, rng);
    prune::PruneConfig pc;
    pc.method = method;
    pc.sparsity = sparsity;
    pc.segment_size = xbar_size;
    prune::prune_at_init(model, pc);
    return map::count_crossbars(model, method, xbar_size).compression_rate();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace xs;
    const util::Flags flags(argc, argv);
    core::ExperimentContext ctx(flags);
    const double comp_width = flags.get_double("compression-width", 1.0);
    const std::int64_t comp_xbar = flags.get_int("compression-xbar", 32);

    util::CsvWriter csv(ctx.csv_path("table1.csv"),
                        {"dataset", "network", "scheme", "sparsity",
                         "software_acc", "compression_rate"});

    std::vector<std::string> variants;
    {
        std::stringstream ss(flags.get_string("variants", "vgg11,vgg16"));
        std::string item;
        while (std::getline(ss, item, ','))
            if (!item.empty()) variants.push_back(item);
    }

    for (const std::int64_t classes : {10, 100}) {
        const double s = ctx.sparsity_for(classes);
        std::printf("Table I — CIFAR%lld-like: software accuracy  ||  "
                    "crossbar-compression-rate (%lldx%lld, width %.2f)\n\n",
                    static_cast<long long>(classes),
                    static_cast<long long>(comp_xbar),
                    static_cast<long long>(comp_xbar), comp_width);

        struct Scheme {
            const char* label;
            prune::Method method;
        };
        std::vector<Scheme> schemes = {{"unpruned", prune::Method::kNone},
                                       {"C/F", prune::Method::kChannelFilter}};
        if (classes == 10) {
            schemes.push_back({"XCS", prune::Method::kXbarColumn});
            schemes.push_back({"XRS", prune::Method::kXbarRow});
        }

        // One nf-only sweep over variant × scheme: no inference pass, no
        // device variation — each cell deterministically prepares (or loads)
        // its trained model and reports its software accuracy.
        sweep::SweepSpec spec;
        spec.variants = variants;
        spec.class_counts = {classes};
        spec.prunes.clear();
        for (const auto& scheme : schemes)
            spec.prunes.push_back(
                {scheme.method,
                 scheme.method == prune::Method::kNone ? 0.0 : s});
        spec.sizes = {comp_xbar};
        spec.sigmas = {ctx.sigma()};
        spec.repeats = 1;
        spec.nf_only = true;

        sweep::SweepOptions opts;
        opts.resume = flags.get_bool("resume", false);
        opts.csv_name = "table1_c" + std::to_string(classes) + "_sweep.csv";
        opts.manifest_name =
            "table1_c" + std::to_string(classes) + "_manifest.jsonl";
        const sweep::SweepSummary summary =
            sweep::SweepRunner(ctx, spec, opts).run();

        // (variant, scheme) → sweep row, keyed the way the table iterates.
        std::map<std::pair<std::string, prune::Method>, const sweep::GroupRow*>
            rows;
        for (const sweep::GroupRow& row : summary.rows)
            if (row.complete())
                rows[{row.cell.variant, row.cell.prune.method}] = &row;

        std::vector<std::string> header{"network"};
        for (const auto& scheme : schemes)
            header.push_back(std::string(scheme.label) +
                             (scheme.method == prune::Method::kNone
                                  ? ""
                                  : " (s=" + util::fmt(s, 1) + ")"));
        util::TextTable table(header);

        for (const std::string& variant : variants) {
            std::vector<std::string> row{variant};
            for (const auto& scheme : schemes) {
                const double sp =
                    scheme.method == prune::Method::kNone ? 0.0 : s;
                const auto it = rows.find({variant, scheme.method});
                if (it == rows.end()) {  // interrupted sweep (--max-cells)
                    row.push_back("--");
                    continue;
                }
                std::string cell = util::fmt(it->second->software_acc) + "%";
                double comp = 0.0;
                if (scheme.method != prune::Method::kNone) {
                    comp = structural_compression(variant, classes,
                                                  scheme.method, sp,
                                                  comp_width, comp_xbar);
                    cell += " || " + util::fmt(comp) + "x";
                } else {
                    cell += " || --";
                }
                csv.row(classes, variant, scheme.label, sp,
                        it->second->software_acc, comp);
                row.push_back(cell);
            }
            table.add_row(row);
        }
        std::printf("%s\n", table.str().c_str());
    }
    std::printf("(rows written to results/table1.csv)\n");
    return 0;
}
