// End-to-end SweepRunner coverage on a deliberately tiny grid: manifest
// resume after a mid-sweep interruption reproduces the uninterrupted
// aggregate CSV byte for byte, a quarantined cell stays quarantined across
// a resume, the CSV is invariant to how repeats are
// grouped into work units, and the thread-safe ExperimentContext prepares
// each shared model exactly once.
#include "core/experiments.h"
#include "sweep/runner.h"
#include "util/parallel.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir = std::filesystem::temp_directory_path() / "xs_sweep_runner";
    std::filesystem::create_directories(dir);
    return dir.string();
}

util::Flags tiny_flags() {
    static std::vector<std::string> args = {
        "--width=0.0625",  "--train-count=96", "--test-count=48",
        "--epochs=1",      "--batch=16",       "--sizes=16",
        "--out-dir=" + test_dir(), "--cache-dir=" + test_dir() + "/models"};
    std::vector<char*> argv;
    static const char* name = "sweep_runner_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    return util::Flags(static_cast<int>(argv.size()), argv.data());
}

SweepSpec tiny_spec() {
    SweepSpec spec;
    spec.variants = {"vgg11"};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kNone, 0.0},
                   {prune::Method::kChannelFilter, 0.8}};
    spec.mitigations = {{}};
    spec.sizes = {16};
    spec.repeats = 2;
    return spec;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// All tests share one context (and its trained models / dataset). The
// directory is wiped once per process so no test can compare against stale
// output from a previous binary version.
core::ExperimentContext& ctx() {
    static const bool cleaned = [] {
        std::filesystem::remove_all(std::filesystem::temp_directory_path() /
                                    "xs_sweep_runner");
        return true;
    }();
    (void)cleaned;
    static util::Flags flags = tiny_flags();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSummary run(const SweepOptions& opts) {
    SweepRunner runner(ctx(), tiny_spec(), opts);
    return runner.run();
}

TEST(SweepRunner, UninterruptedBaseline) {
    SweepOptions opts;
    opts.csv_name = "full.csv";
    opts.manifest_name = "full.jsonl";
    const SweepSummary summary = run(opts);
    EXPECT_EQ(summary.cells_total, 4);
    EXPECT_EQ(summary.cells_executed, 4);
    EXPECT_EQ(summary.cells_pending, 0);
    ASSERT_EQ(summary.rows.size(), 2u);
    for (const auto& row : summary.rows) {
        EXPECT_TRUE(row.complete());
        EXPECT_EQ(row.repeats_done, 2);
        EXPECT_GT(row.tiles, 0);
        EXPECT_GT(row.energy_pj, 0.0);
    }
    // Two groups -> header + two data rows.
    std::istringstream csv(slurp(summary.csv_path));
    std::string line;
    int lines = 0;
    while (std::getline(csv, line)) ++lines;
    EXPECT_EQ(lines, 3);
}

TEST(SweepRunner, InterruptedThenResumedCsvIsByteIdentical) {
    SweepOptions baseline;
    baseline.csv_name = "full.csv";
    baseline.manifest_name = "full.jsonl";
    run(baseline);  // idempotent; ensures full.csv exists

    SweepOptions opts;
    opts.csv_name = "resumed.csv";
    opts.manifest_name = "resumed.jsonl";
    opts.max_cells = 2;  // "kill" the sweep after two cells
    const SweepSummary partial = run(opts);
    EXPECT_EQ(partial.cells_executed, 2);
    EXPECT_EQ(partial.cells_pending, 2);
    // Only complete groups reach the aggregate CSV.
    std::istringstream csv(slurp(partial.csv_path));
    std::string line;
    int lines = 0;
    while (std::getline(csv, line)) ++lines;
    EXPECT_EQ(lines, 2);  // header + the one finished group

    // Simulate a crash mid-manifest-write on top of the interruption.
    {
        std::ofstream out(partial.manifest_path,
                          std::ios::app | std::ios::binary);
        out << "{\"cell\":\"vgg11-c10/cf";
    }

    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = run(opts);
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(resumed.cells_pending, 0);

    const std::string full = slurp(ctx().csv_path("full.csv"));
    ASSERT_FALSE(full.empty());
    EXPECT_EQ(slurp(resumed.csv_path), full);
}

TEST(SweepRunner, QuarantinedCellWithBracesInReasonStaysQuarantined) {
    SweepOptions opts;
    opts.csv_name = "braces.csv";
    opts.manifest_name = "braces.jsonl";
    opts.max_cells = 1;
    const SweepSummary partial = run(opts);
    ASSERT_EQ(partial.cells_executed, 1);

    // A quarantine record (as the supervisor writes it) whose reason holds
    // braces, for a cell the interrupted run did not reach.
    const std::vector<SweepCell> cells = tiny_spec().expand();
    const std::string quarantined = cells.back().id();
    CellResult failed;
    failed.status = "failed";
    failed.reason = "shape mismatch {3, 4}";
    failed.attempts = 3;
    {
        std::ofstream out(partial.manifest_path,
                          std::ios::app | std::ios::binary);
        out << encode_manifest_line(quarantined, failed) << "\n";
    }

    opts.max_cells = -1;
    opts.resume = true;
    const SweepSummary resumed = run(opts);
    EXPECT_EQ(resumed.manifest_lines_skipped, 0);
    EXPECT_EQ(resumed.cells_resumed, 2);
    EXPECT_EQ(resumed.cells_executed, 2);  // the quarantined cell is not re-run
    EXPECT_EQ(resumed.cells_failed, 1);
    ASSERT_EQ(resumed.failed_cells.size(), 1u);
    EXPECT_EQ(resumed.failed_cells[0], quarantined);
    const auto manifest = load_manifest(resumed.manifest_path);
    ASSERT_EQ(manifest.count(quarantined), 1u);
    EXPECT_EQ(manifest.at(quarantined).reason, "shape mismatch {3, 4}");
}

// Runs every cell of `spec` as its own one-cell unit — what supervisor and
// service workers do — and writes their aggregate CSV as `csv_name`.
std::map<std::string, CellResult> run_one_cell_units(
    const SweepSpec& spec, const std::string& csv_name) {
    const std::vector<SweepCell> cells = spec.expand();
    std::map<std::string, CellResult> results;
    for (const SweepCell& cell : cells)
        results[cell.id()] = run_sweep_group(ctx(), spec, {&cell})[0];
    SweepSummary summary;
    summary.csv_path = ctx().csv_path(csv_name);
    aggregate_and_write_csv(cells, spec, results, summary);
    return results;
}

TEST(SweepRunner, AggregateCsvInvariantToRepeatBatching) {
    // Three ways of running the same cells must agree byte for byte: one-
    // cell units, the runner's whole-group units (repeats of a grid point
    // share one compiled-instance set and one batched inference pass), and
    // a partially-resumed group. Per-repeat FNV seeding plus cold-start
    // solves make every batched lane bit-identical to its one-cell unit.
    // The per-cell results must agree too, field by field, bit for bit
    // (everything except the wall-clock timing). Repeat counts: 1 runs a
    // single lane, 3 a partial group, 8 two full groups compiled and
    // inferred one after the other.
    for (const std::int64_t repeats : {1, 3, 8}) {
        SCOPED_TRACE("repeats=" + std::to_string(repeats));
        const std::string tag = "rb" + std::to_string(repeats);
        SweepSpec spec = tiny_spec();
        spec.prunes = {{prune::Method::kNone, 0.0}};
        spec.repeats = repeats;

        const std::map<std::string, CellResult> single =
            run_one_cell_units(spec, tag + "_single.csv");
        const std::string expected = slurp(ctx().csv_path(tag + "_single.csv"));
        ASSERT_FALSE(expected.empty());

        SweepOptions grouped;
        grouped.csv_name = tag + "_group.csv";
        grouped.manifest_name = tag + "_group.jsonl";
        const SweepSummary batched = SweepRunner(ctx(), spec, grouped).run();
        EXPECT_EQ(batched.cells_executed, repeats);
        EXPECT_EQ(slurp(batched.csv_path), expected);

        const auto bat_man = load_manifest(batched.manifest_path);
        ASSERT_EQ(single.size(), static_cast<std::size_t>(repeats));
        ASSERT_EQ(bat_man.size(), single.size());
        for (const auto& [id, one] : single) {
            SCOPED_TRACE(id);
            const auto it = bat_man.find(id);
            ASSERT_NE(it, bat_man.end());
            const CellResult& bat = it->second;
            EXPECT_EQ(bat.backend, one.backend);
            EXPECT_EQ(bat.status, one.status);
            EXPECT_EQ(bat.tiles, one.tiles);
            EXPECT_EQ(bat.solver_failures, one.solver_failures);
            // Doubles round-trip the manifest at 17 significant digits, so
            // equality here is bit equality of the recorded values.
            EXPECT_EQ(bat.accuracy, one.accuracy);
            EXPECT_EQ(bat.nf_mean, one.nf_mean);
            EXPECT_EQ(bat.energy_pj, one.energy_pj);
            EXPECT_EQ(bat.software_acc, one.software_acc);
        }
    }

    // A partially-resumed group: after max_cells interrupts mid-group, the
    // remaining lanes batch as a smaller group with the same bytes.
    SweepSpec spec = tiny_spec();
    spec.prunes = {{prune::Method::kNone, 0.0}};
    spec.repeats = 3;
    run_one_cell_units(spec, "rb_resume_ref.csv");
    const std::string expected = slurp(ctx().csv_path("rb_resume_ref.csv"));
    ASSERT_FALSE(expected.empty());
    SweepOptions resume;
    resume.csv_name = "rb_resume.csv";
    resume.manifest_name = "rb_resume.jsonl";
    resume.max_cells = 1;  // interrupt with two of the group's lanes pending
    SweepRunner(ctx(), spec, resume).run();
    resume.max_cells = -1;
    resume.resume = true;
    const SweepSummary resumed = SweepRunner(ctx(), spec, resume).run();
    EXPECT_EQ(resumed.cells_resumed, 1);
    EXPECT_EQ(resumed.cells_executed, 2);
    EXPECT_EQ(slurp(resumed.csv_path), expected);
}

TEST(SweepRunner, ResumeRefusesDifferentConfiguration) {
    SweepOptions opts;
    opts.csv_name = "fp.csv";
    opts.manifest_name = "fp.jsonl";
    opts.max_cells = 1;
    run(opts);

    // Same out-dir, different training config: the recorded cells came from
    // another experiment, so resuming must fail loudly.
    std::vector<std::string> args = {
        "--width=0.0625",  "--train-count=96", "--test-count=48",
        "--epochs=2",      "--batch=16",       "--sizes=16",
        "--out-dir=" + test_dir(), "--cache-dir=" + test_dir() + "/models"};
    std::vector<char*> argv;
    static const char* name = "sweep_runner_test";
    argv.push_back(const_cast<char*>(name));
    for (auto& arg : args) argv.push_back(arg.data());
    const util::Flags flags(static_cast<int>(argv.size()), argv.data());
    core::ExperimentContext other(flags);

    opts.resume = true;
    opts.max_cells = -1;
    SweepRunner runner(other, tiny_spec(), opts);
    EXPECT_THROW(runner.run(), std::exception);
}

TEST(SweepRunner, ColdFingerprintStillResumesOlderManifests) {
    // Manifests written while the solve start was still selectable carry
    // "/cold" in their fingerprint; the fingerprint keeps that literal so
    // they resume without re-running a cell.
    SweepSpec nf = tiny_spec();
    nf.nf_only = true;
    EXPECT_EQ(sweep_config_fingerprint(ctx(), tiny_spec()),
              ctx().fingerprint() + "/cold/rng-zig128");
    EXPECT_EQ(sweep_config_fingerprint(ctx(), nf),
              ctx().fingerprint() + "/cold/nf/rng-zig128");

    SweepOptions opts;
    opts.csv_name = "cold_fp.csv";
    opts.manifest_name = "cold_fp.jsonl";
    {
        ManifestWriter writer(ctx().csv_path(opts.manifest_name),
                              /*append=*/false);
        writer.record_config(ctx().fingerprint() + "/cold/rng-zig128");
        CellResult r;
        r.accuracy = 50.0;
        r.tiles = 1;
        for (const SweepCell& cell : tiny_spec().expand())
            writer.record(cell.id(), r);
    }
    opts.resume = true;
    const SweepSummary resumed = run(opts);
    EXPECT_EQ(resumed.cells_executed, 0);
    EXPECT_EQ(resumed.cells_resumed, resumed.cells_total);
}

TEST(SweepRunner, BackendAxisRecordsBackendAndFastTracksCircuit) {
    SweepOptions opts;
    opts.csv_name = "backends.csv";
    opts.manifest_name = "backends.jsonl";
    SweepSpec spec = tiny_spec();
    spec.prunes = {{prune::Method::kNone, 0.0}};
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    SweepRunner runner(ctx(), spec, opts);
    const SweepSummary summary = runner.run();

    ASSERT_EQ(summary.rows.size(), 2u);
    const GroupRow& circuit = summary.rows[0];
    const GroupRow& fast = summary.rows[1];
    ASSERT_EQ(circuit.cell.backend, xbar::BackendKind::kCircuit);
    ASSERT_EQ(fast.cell.backend, xbar::BackendKind::kFast);
    EXPECT_TRUE(circuit.complete() && fast.complete());
    // Shared per-cell seeds make the gap pure surrogate error; on the tiny
    // 48-image test split one image is ≈2.1 pp, so allow two flips.
    EXPECT_NEAR(fast.acc_mean, circuit.acc_mean, 4.2);
    EXPECT_NEAR(fast.nf_mean, circuit.nf_mean,
                0.25 * circuit.nf_mean + 1e-3);

    // Backend lands in the manifest lines and the aggregate CSV column.
    const auto manifest = load_manifest(summary.manifest_path);
    ASSERT_EQ(manifest.size(), 4u);
    int fast_cells = 0;
    for (const auto& [id, r] : manifest) {
        EXPECT_TRUE(r.backend == "circuit" || r.backend == "fast") << id;
        if (r.backend == "fast") ++fast_cells;
    }
    EXPECT_EQ(fast_cells, 2);
    const std::string csv = slurp(summary.csv_path);
    EXPECT_NE(csv.find(",backend,"), std::string::npos);
    EXPECT_NE(csv.find("fast"), std::string::npos);
}

TEST(SweepRunner, CellBudgetCountsWarnsAndOptionallyAborts) {
    SweepOptions opts;
    opts.csv_name = "budget.csv";
    opts.manifest_name = "budget.jsonl";
    opts.cell_budget_ms = 1e-3;  // everything overruns
    const SweepSummary summary = run(opts);
    EXPECT_EQ(summary.cells_over_budget, summary.cells_executed);

    opts.manifest_name = "budget_abort.jsonl";
    opts.csv_name = "budget_abort.csv";
    opts.cell_budget_abort = true;
    SweepRunner aborting(ctx(), tiny_spec(), opts);
    EXPECT_THROW(aborting.run(), std::exception);

    // The abort happens only after every dispatched cell is recorded: a
    // budget-failed sweep resumes with nothing lost.
    opts.cell_budget_abort = false;
    opts.cell_budget_ms = 0.0;
    opts.resume = true;
    SweepRunner resumed(ctx(), tiny_spec(), opts);
    const SweepSummary after = resumed.run();
    EXPECT_EQ(after.cells_resumed, after.cells_total);
    EXPECT_EQ(after.cells_executed, 0);
    EXPECT_EQ(after.cells_over_budget, 0);
}

TEST(SweepRunner, DryRunReportListsGridWithoutExecuting) {
    SweepSpec spec = tiny_spec();
    spec.backends = {xbar::BackendKind::kCircuit, xbar::BackendKind::kFast};
    const std::string report = dry_run_report(ctx(), spec);
    EXPECT_NE(report.find("cells: 8 (4 groups x 2 repeats)"),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("models to prepare: 2"), std::string::npos) << report;
    EXPECT_NE(report.find("backends = circuit,fast"), std::string::npos)
        << report;
    EXPECT_NE(report.find("prune = unpruned,cf:0.8"), std::string::npos)
        << report;
}

TEST(SweepRunner, ConcurrentPreparedReturnsOneModelInstance) {
    const core::ModelSpec spec =
        ctx().spec("vgg11", 10, prune::Method::kNone, 0.0);
    std::vector<core::PreparedModel*> seen(8, nullptr);
    util::parallel_for(0, seen.size(), [&](std::size_t i) {
        seen[i] = &ctx().prepared(spec);
    });
    for (const auto* model : seen) EXPECT_EQ(model, seen[0]);
}

}  // namespace
}  // namespace xs::sweep
