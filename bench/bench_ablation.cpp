// Ablation bench (DESIGN.md §6 design choices): the C/F-pruned VGG11/CIFAR10
// model mapped under the default non-ideality stack plus one knob changed at
// a time — write quantization, stuck-at faults, IR-drop column compensation
// ([12]-style baseline), and the paper's two mitigations, on equal footing.
//
// A thin SweepSpec driver (DESIGN.md §7): every ablation case is a
// one-group sweep over the engine's axes (sigma, parasitic scale, faults,
// quant-levels, mitigations), so each case inherits parallel execution,
// resumable manifests, lane-batched Monte-Carlo repeats, and deterministic
// mean±std aggregation instead of a hand-written evaluation loop.
//
//   ./bench_ablation [--xbar=64] [--sweep-repeats=N] [--resume]
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
    const double s = ctx.sparsity_for(10);
    const std::int64_t size = flags.get_int("xbar", 64);

    const sweep::PruneSetting unpruned{prune::Method::kNone, 0.0};
    const sweep::PruneSetting cf{prune::Method::kChannelFilter, s};

    // One knob per case; everything else stays at the default stack.
    struct Case {
        const char* label;
        const char* slug;  // manifest/CSV file name component
        sweep::PruneSetting prune;
        sweep::Mitigation mitigation;
        double sigma;
        double parasitic_scale;
        sweep::FaultSetting faults;
        std::int64_t quant_levels;
    };
    const double sig = ctx.sigma();
    const sweep::Mitigation none{};
    const std::vector<Case> cases = {
        {"unpruned baseline", "unpruned", unpruned, none, sig, 1.0, {}, 0},
        {"C/F baseline", "cf", cf, none, sig, 1.0, {}, 0},
        {"C/F, no variation", "novar", cf, none, 0.0, 1.0, {}, 0},
        {"C/F, no parasitics", "nopar", cf, none, sig, 0.0, {}, 0},
        {"C/F + 6-bit write quant", "q64", cf, none, sig, 1.0, {}, 64},
        {"C/F + 4-bit write quant", "q16", cf, none, sig, 1.0, {}, 16},
        {"C/F + 1% stuck faults", "f1", cf, none, sig, 1.0, {0.005, 0.005}, 0},
        {"C/F + 5% stuck faults", "f5", cf, none, sig, 1.0, {0.025, 0.025}, 0},
        {"C/F + column compensation", "comp", cf, {false, false, true}, sig,
         1.0, {}, 0},
        {"C/F + R", "r", cf, {false, true, false}, sig, 1.0, {}, 0},
        {"C/F + R + compensation", "rcomp", cf, {false, true, true}, sig, 1.0,
         {}, 0},
        {"WCT + C/F", "wct", cf, {true, false, false}, sig, 1.0, {}, 0},
    };

    util::CsvWriter csv(ctx.csv_path("ablation.csv"),
                        {"variant", "xbar_size", "accuracy", "nf_mean"});
    util::TextTable table({"variant", "software", "accuracy", "NF"});

    std::printf(
        "Ablation: C/F-pruned VGG11/CIFAR10 (s=%.2f) on %lldx%lld crossbars\n\n",
        s, static_cast<long long>(size), static_cast<long long>(size));

    for (const Case& c : cases) {
        sweep::SweepSpec spec;
        spec.class_counts = {10};
        spec.prunes = {c.prune};
        spec.mitigations = {c.mitigation};
        spec.sizes = {size};
        spec.sigmas = {c.sigma};
        spec.parasitic_scales = {c.parasitic_scale};
        spec.faults = {c.faults};
        spec.quant_levels = {c.quant_levels};
        spec.repeats = ctx.eval_repeats();

        sweep::SweepOptions opts;
        opts.resume = flags.get_bool("resume", false);
        opts.csv_name = std::string("ablation_") + c.slug + "_sweep.csv";
        opts.manifest_name =
            std::string("ablation_") + c.slug + "_manifest.jsonl";

        const sweep::SweepSummary summary =
            sweep::SweepRunner(ctx, spec, opts).run();
        if (summary.rows.empty() || !summary.rows.front().complete()) {
            table.add_row({c.label, "--", "--", "--"});
            continue;
        }
        const sweep::GroupRow& row = summary.rows.front();
        csv.row(c.label, size, row.acc_mean, row.nf_mean);
        table.add_row({c.label, util::fmt(row.software_acc) + "%",
                       util::fmt(row.acc_mean) + "%",
                       util::fmt(row.nf_mean, 4)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("(rows written to results/ablation.csv)\n");
    return 0;
}
