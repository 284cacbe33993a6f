// In-process, resumable execution of a SweepSpec grid (DESIGN.md §7).
//
// Work units are dealt round-robin onto one part per pool worker and the
// parts run concurrently on the process-wide worker pool; every completed
// cell is appended to a JSONL manifest (sweep/manifest.h) so an interrupted
// sweep resumes with --resume, skipping finished cells. Every unit runs
// through one function, run_sweep_group, on one grid point's contiguous
// pending repeats. Per-cell RNG seeds derive from the cell's stable group
// id — never from worker, grouping, or completion order — and every circuit
// solve cold-starts, so the aggregate CSV is byte-identical at any worker
// count, however cells are grouped, with or without interruption.
//
// The same grid also runs in forked worker processes (sweep/supervisor.h)
// and on remote agent hosts (sweep/service.h). All three executors keep
// their per-sweep bookkeeping — resume, pending list, durable ack,
// retry/quarantine, progress, aggregation — in one SweepCoordinator
// (sweep/coordinator.h) and execute cells through run_sweep_group, so their
// aggregate CSVs are byte-identical to each other.
#pragma once

#include "core/experiments.h"
#include "sweep/manifest.h"
#include "sweep/spec.h"
#include "util/metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xs::sweep {

struct SweepOptions {
    // Skip cells already recorded in the manifest (fresh runs truncate it).
    bool resume = false;
    std::string csv_name = "sweep.csv";
    std::string manifest_name = "sweep_manifest.jsonl";
    // Execute at most this many new cells, then stop (negative = no limit).
    // Smoke runs and the resume tests use this as a deterministic
    // mid-sweep interruption.
    std::int64_t max_cells = -1;
    // Per-cell wall-time budget in milliseconds; 0 disables budgeting.
    // Every cell's elapsed ms is recorded in the manifest (wall_ms) either
    // way; cells over budget log a warning and count into
    // SweepSummary::cells_over_budget. Under the supervisor the budget is
    // also a hard watchdog deadline: a worker still holding the cell past it
    // is SIGKILLed, the kill counts as an overrun, and the cell is re-dealt
    // (DESIGN.md §9); the service uses it as the lease duration (§11).
    double cell_budget_ms = 0.0;
    // Escalate budget overruns to a hard failure, under every executor: the
    // sweep still finishes its dispatched cells (and records them in the
    // manifest, so --resume loses nothing), then throws listing the overrun
    // count.
    bool cell_budget_abort = false;
    // Emit a progress heartbeat on stderr every this many seconds while
    // cells execute (cells settled, failed — resumed plus new quarantines —,
    // retried, rate, ETA, then per-worker or per-host state). 0 disables it.
    double progress_sec = 0.0;
};

// One aggregation group (= one CSV row): all repeats of a grid point.
struct GroupRow {
    SweepCell cell;  // repeat-0 representative
    std::int64_t repeats_total = 0;
    std::int64_t repeats_done = 0;    // completed ok (failed cells excluded)
    std::int64_t repeats_failed = 0;  // quarantined cells in this group
    double software_acc = 0.0;
    double acc_mean = 0.0, acc_std = 0.0;
    double nf_mean = 0.0, nf_std = 0.0;
    double energy_pj = 0.0;
    std::int64_t tiles = 0;
    std::int64_t solver_failures = 0;  // summed over repeats

    bool complete() const { return repeats_done == repeats_total; }
};

struct SweepSummary {
    std::vector<GroupRow> rows;  // expansion order; complete and partial
    std::int64_t cells_total = 0;
    std::int64_t cells_executed = 0;
    std::int64_t cells_resumed = 0;   // taken from the manifest (ok + failed)
    std::int64_t cells_pending = 0;   // left undone (max_cells, drain)
    std::int64_t cells_over_budget = 0;  // executed cells over cell_budget_ms
    // Robustness accounting (retries and quarantines come from the
    // supervisor and the service; the in-process runner only carries failed
    // cells forward from a resumed manifest).
    std::int64_t cells_failed = 0;          // quarantined, in the grid
    std::vector<std::string> failed_cells;  // their ids, expansion order
    std::int64_t worker_restarts = 0;
    std::int64_t watchdog_kills = 0;
    std::int64_t cell_retries = 0;  // supervisor re-deals after crash/hang/fail
    std::int64_t manifest_lines_skipped = 0;  // corrupt lines ignored on resume
    // Multi-host service accounting (sweep/service.h; zero elsewhere).
    std::int64_t hosts_joined = 0;    // successful kJoin handshakes, cumulative
    std::int64_t duplicate_acks = 0;  // acks deduped against recorded results
    // Merged telemetry snapshot (util/metrics.h JSON schema): this process
    // plus — under the supervisor — every worker's kMetrics frame. Also
    // appended to the manifest as an uncounted {"metrics": ...} record.
    // Empty when telemetry is compiled out.
    std::string metrics_json;
    std::string csv_path;
    std::string manifest_path;
};

// Deterministic per-cell RNG seed: a function of the master seed and the
// cell's identity only (FNV-1a over the cell's seed_key, offset by the
// repeat). The backend axis is deliberately excluded: cells differing only
// in backend evaluate the same stochastic draws, so backend comparisons
// isolate model error.
std::uint64_t cell_seed(std::uint64_t master_seed, const SweepCell& cell);

// ---- building blocks shared by every executor ----
// SweepCoordinator composes the fingerprint, the model list, aggregation and
// the metrics merge below; worker processes run run_sweep_group.

// The sweep work unit: execute `cells` (repeats of ONE grid point, any
// subset, ≥1) in the calling process. One model resolve and one EvalConfig
// serve them all; each cell is seeded with its own cell_seed. Inference
// cells run as one lane-batched evaluation (one compiled instance per cell,
// one batched inference pass); nf_only cells call measure_nf once each.
// Returns one CellResult per input cell, in order, with the unit's wall
// time split evenly across them, and attaches the analytic energy
// estimate. Circuit solves cold-start, so every lane is bit-identical to a
// one-cell call on the same cell and the supervisor's and service's
// workers, which run one cell at a time, stay byte-comparable with grouped
// in-process runs.
std::vector<CellResult> run_sweep_group(core::ExperimentContext& ctx,
                                        const SweepSpec& spec,
                                        const std::vector<const SweepCell*>& cells);

// The configuration fingerprint recorded in (and checked against) the
// manifest: experiment context + "/cold" + measurement mode + RNG sampler
// tag.
std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec);

// The distinct models a set of cells resolves to, deduplicated by spec key
// in first-use order — shared by the coordinator's prepare phase, the agent
// and the --dry-run preview, so the preview can never diverge from what
// actually trains.
std::vector<core::ModelSpec> distinct_model_specs(
    const core::ExperimentContext& ctx, const std::vector<SweepCell>& cells);

// Fold a resumed manifest's prior {"metrics":…} record (inner JSON; "" is a
// no-op) into `snap`, so the record appended at the end of this run carries
// the whole sweep's totals (SweepCoordinator::finish calls this before
// ManifestWriter::record_metrics).
void merge_prior_metrics(const std::string& prior_json,
                         util::metrics::Snapshot& snap);

// Aggregate `results` over the grid into summary.rows (expansion order) and
// write the aggregate CSV (complete groups only, fixed formatting). Failed
// cells never aggregate: their groups are incomplete, excluded from the
// CSV, and accounted in summary.cells_failed / failed_cells.
void aggregate_and_write_csv(const std::vector<SweepCell>& cells,
                             const SweepSpec& spec,
                             const std::map<std::string, CellResult>& results,
                             SweepSummary& summary);

class SweepRunner {
public:
    SweepRunner(core::ExperimentContext& ctx, SweepSpec spec, SweepOptions opts);

    // Prepare shared models (each once), execute pending cells on the pool,
    // append the manifest, and write the aggregate CSV (complete groups
    // only, expansion order).
    SweepSummary run();

private:
    core::ExperimentContext& ctx_;
    SweepSpec spec_;
    SweepOptions opts_;
};

// Paper-style accuracy-vs-crossbar-size table: one row per group modulo the
// size axis, one column per size ("mean±std" cells; incomplete groups "--").
std::string accuracy_vs_size_table(const SweepSummary& summary);

// Expanded-grid preview for --dry-run: per-axis values, cell/group counts,
// the distinct models the grid would prepare (train or load), and the
// backends exercised. Pure formatting — nothing is trained or executed.
std::string dry_run_report(const core::ExperimentContext& ctx,
                           const SweepSpec& spec);

}  // namespace xs::sweep
