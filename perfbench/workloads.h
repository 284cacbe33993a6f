// The benchmark's workloads: paper-shaped sweep grids expressed as the same
// flags sweep_runner takes, so a workload is reproducible by hand.
#pragma once

#include "core/experiments.h"
#include "fidelity.h"
#include "sweep/spec.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

// Seed the model zoo is trained at and the reference CSVs are recorded at.
inline constexpr std::uint64_t kReferenceSeed = 11;

struct Workload {
    std::string name;
    // Experiment-scale and sweep-axis flags ("--key=value"); the driver adds
    // --seed, --cache-dir and --out-dir.
    std::vector<std::string> flags;
    // Forked worker processes (sweep::run_supervised); 0 runs the grid
    // in-process through sweep::SweepRunner.
    std::int64_t workers = 0;
    // Tolerances at the reference seed, and at any other seed. Away from
    // the reference seed the test images and Monte-Carlo draws differ, so
    // accuracy and variation-dependent NF are held to a statistical band
    // rather than to the recorded values. The bands are about 1.5x the
    // largest deviation seen over seeds 1-8 (README.md). Unset when the
    // results do not depend on the seed: tol_reference then holds at every
    // seed.
    FidelityTolerance tol_reference;
    std::optional<FidelityTolerance> tol_other_seed;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

// A NUL-terminated argv for util::Flags: `program` followed by `flags`.
class FlagArgs {
public:
    FlagArgs(const std::string& program, const std::vector<std::string>& flags);
    FlagArgs(const FlagArgs&) = delete;  // ptrs_ point into strings_
    FlagArgs& operator=(const FlagArgs&) = delete;
    int argc() const { return static_cast<int>(ptrs_.size()) - 1; }
    char** argv() { return ptrs_.data(); }
    const std::vector<std::string>& strings() const { return strings_; }

private:
    std::vector<std::string> strings_;
    std::vector<char*> ptrs_;
};

// Distinct model specs a grid prepares, in expansion order.
std::vector<xs::core::ModelSpec> grid_model_specs(const xs::core::ExperimentContext& ctx,
                                                  const xs::sweep::SweepSpec& spec);

}  // namespace perfbench
