#include "workloads.h"

#include <set>

namespace perfbench {

const std::vector<Workload>& workloads() {
    static const std::vector<Workload> kWorkloads = [] {
        const std::vector<std::string> common = {"--width=0.125", "--train-count=2048",
                                                 "--classes=10"};
        const std::string mc_prunes = "--prune=none,cf:0.8,xcs:0.8,xrs:0.8";
        const std::string mc_mitigations = "--mitigations=none,rearrange,wct,wct+rearrange";
        std::vector<Workload> w(3);

        w[0].name = "mc-circuit";
        w[0].flags = common;
        w[0].flags.insert(w[0].flags.end(),
                          {"--variants=vgg11", mc_prunes, mc_mitigations, "--sizes=16,32,64",
                           "--backends=circuit", "--sweep-repeats=4", "--test-count=128"});
        w[0].tol_other_seed = {30.0, 0.01, 10.0};

        w[1].name = "mc-fast-vgg16";
        w[1].flags = common;
        w[1].flags.insert(w[1].flags.end(),
                          {"--variants=vgg16", "--prune=none,cf:0.6,xcs:0.6,xrs:0.6",
                           "--sizes=16,32,64", "--backends=fast", "--sweep-repeats=4",
                           "--test-count=512"});
        w[1].tol_other_seed = {30.0, 0.01, 8.0};

        // NF cells run without device variation or inference, so their
        // results do not depend on the seed (tol_other_seed stays unset).
        w[2].name = "nf-supervised";
        w[2].flags = common;
        w[2].flags.insert(w[2].flags.end(),
                          {"--variants=vgg11", mc_prunes, mc_mitigations,
                           "--sizes=16,32,64,128", "--parasitic-scales=0.5,1,2,4",
                           "--nf-only=true", "--sweep-repeats=1", "--backends=circuit",
                           "--test-count=128"});
        w[2].workers = 1;
        return w;
    }();
    return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
    for (const Workload& w : workloads())
        if (w.name == name) return &w;
    return nullptr;
}

FlagArgs::FlagArgs(const std::string& program, const std::vector<std::string>& flags)
    : strings_{program} {
    strings_.insert(strings_.end(), flags.begin(), flags.end());
    for (std::string& s : strings_) ptrs_.push_back(s.data());
    ptrs_.push_back(nullptr);  // argv[argc]
}

std::vector<xs::core::ModelSpec> grid_model_specs(const xs::core::ExperimentContext& ctx,
                                                  const xs::sweep::SweepSpec& spec) {
    std::set<std::string> seen;
    std::vector<xs::core::ModelSpec> specs;
    for (const xs::sweep::SweepCell& c : spec.expand()) {
        xs::core::ModelSpec ms = ctx.spec(c.variant, c.num_classes, c.prune.method,
                                          c.prune.sparsity, c.mitigation.wct);
        if (seen.insert(ms.key()).second) specs.push_back(std::move(ms));
    }
    return specs;
}

}  // namespace perfbench
