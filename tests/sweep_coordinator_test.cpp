// SweepCoordinator::record is the one place any executor turns a cell
// result into a durable manifest line, so its three outcomes are pinned
// here directly: a fresh id is appended once and counted once, a duplicate
// (a late or replayed ack) is counted as such and appended nowhere, and an
// id that is not a pending cell of this sweep is refused. Nothing here
// trains or executes a cell.
#include "core/experiments.h"
#include "sweep/coordinator.h"
#include "util/metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace xs::sweep {
namespace {

std::string test_dir() {
    const auto dir =
        std::filesystem::temp_directory_path() / "xs_sweep_coordinator";
    std::filesystem::create_directories(dir);
    return dir.string();
}

core::ExperimentContext& ctx() {
    static std::vector<std::string> args = {"--width=0.0625",
                                            "--out-dir=" + test_dir()};
    static const util::Flags flags = [] {
        std::vector<char*> argv{const_cast<char*>("sweep_coordinator_test")};
        for (auto& arg : args) argv.push_back(arg.data());
        return util::Flags(static_cast<int>(argv.size()), argv.data());
    }();
    static core::ExperimentContext context(flags);
    return context;
}

SweepSpec tiny_spec() {
    SweepSpec spec;
    spec.variants = {"vgg11"};
    spec.class_counts = {10};
    spec.prunes = {{prune::Method::kNone, 0.0}};
    spec.mitigations = {{}};
    spec.sizes = {16};
    spec.repeats = 2;
    return spec;
}

SweepOptions options(const std::string& name) {
    SweepOptions opts;
    opts.manifest_name = name + ".jsonl";
    opts.csv_name = name + ".csv";
    return opts;
}

std::int64_t line_count(const std::string& path) {
    std::ifstream in(path);
    std::int64_t n = 0;
    for (std::string line; std::getline(in, line);) ++n;
    return n;
}

#if XS_TELEMETRY_ENABLED
std::uint64_t cells_done() {
    const util::metrics::Snapshot snap = util::metrics::snapshot();
    const auto it = snap.counters.find("sweep.cells.done");
    return it == snap.counters.end() ? 0 : it->second;
}
#endif

CellResult ok_result() {
    CellResult r;
    r.accuracy = 42.0;
    r.wall_ms = 1.0;
    return r;
}

TEST(SweepCoordinator, FreshIdAppendsOneLineAndCountsDoneOnce) {
    util::metrics::reset();
    SweepCoordinator coord(ctx(), tiny_spec(), options("fresh"));
    const std::string path = coord.summary().manifest_path;
    const std::int64_t before = line_count(path);  // the config line
    const std::string id = coord.cells()[coord.pending()[0]].id();

    EXPECT_EQ(coord.record(id, ok_result()), SweepCoordinator::Ack::kRecorded);
    EXPECT_EQ(line_count(path), before + 1);
    EXPECT_EQ(coord.summary().cells_executed, 1);
#if XS_TELEMETRY_ENABLED
    EXPECT_EQ(cells_done(), 1u);
#endif
    const auto manifest = load_manifest(path);
    ASSERT_EQ(manifest.count(id), 1u);
    EXPECT_EQ(manifest.at(id).accuracy, 42.0);
}

TEST(SweepCoordinator, DuplicateAckIsCountedAndAppendsNothing) {
    util::metrics::reset();
    SweepCoordinator coord(ctx(), tiny_spec(), options("duplicate"));
    const std::string path = coord.summary().manifest_path;
    const std::string id = coord.cells()[coord.pending()[0]].id();
    ASSERT_EQ(coord.record(id, ok_result()), SweepCoordinator::Ack::kRecorded);
    const std::int64_t before = line_count(path);

    EXPECT_EQ(coord.record(id, ok_result(), "host1"),
              SweepCoordinator::Ack::kDuplicate);
    EXPECT_EQ(line_count(path), before);
    EXPECT_EQ(coord.summary().duplicate_acks, 1);
    EXPECT_EQ(coord.summary().cells_executed, 1);
#if XS_TELEMETRY_ENABLED
    EXPECT_EQ(cells_done(), 1u);
#endif
}

TEST(SweepCoordinator, IdOutsideTheGridIsRejectedAndAppendsNothing) {
    util::metrics::reset();
    SweepOptions opts = options("foreign");
    opts.max_cells = 1;  // the grid's second cell is not pending this run
    SweepCoordinator coord(ctx(), tiny_spec(), opts);
    const std::string path = coord.summary().manifest_path;
    const std::int64_t before = line_count(path);

    EXPECT_EQ(coord.record("vgg11/not-a-cell/r0", ok_result(), "host1"),
              SweepCoordinator::Ack::kForeign);
    EXPECT_EQ(coord.record(coord.cells()[1].id(), ok_result()),
              SweepCoordinator::Ack::kForeign);
    EXPECT_EQ(line_count(path), before);
    EXPECT_EQ(coord.summary().cells_executed, 0);
    EXPECT_EQ(coord.summary().duplicate_acks, 0);
#if XS_TELEMETRY_ENABLED
    EXPECT_EQ(cells_done(), 0u);
#endif
}

}  // namespace
}  // namespace xs::sweep
