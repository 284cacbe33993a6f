// The per-sweep bookkeeping every executor shares (DESIGN.md §7/§9/§11):
// SweepRunner::run (threads), run_supervised (forked workers) and
// run_service (TCP agents) each build one SweepCoordinator and differ only
// in how they move cells to wherever they execute.
//
// The coordinator owns the expanded grid, the resume state, the manifest
// and the results map. Its constructor expands and fingerprints the grid,
// loads a resumed manifest (warning about corrupt lines, refusing a
// fingerprint mismatch), opens the manifest, and lists the pending cells
// (max_cells applied). record() is the one place a result becomes durable;
// attempt_failed() is the one place a failed attempt is retried or
// quarantined; finish() is the one place the sweep is closed out. So the
// acknowledgement rule, the budget accounting and the aggregate CSV cannot
// drift between executors.
#pragma once

#include "core/experiments.h"
#include "sweep/lease.h"
#include "sweep/manifest.h"
#include "sweep/runner.h"
#include "sweep/spec.h"
#include "util/log.h"
#include "util/metrics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace xs::sweep {

class SweepCoordinator {
public:
    SweepCoordinator(core::ExperimentContext& ctx, const SweepSpec& spec,
                     const SweepOptions& opts);

    const std::vector<SweepCell>& cells() const { return cells_; }
    // Grid indices still to execute, in expansion order. Executors that
    // schedule leases add them to their LeaseScheduler in this order, so a
    // scheduler position is a position in this list.
    const std::vector<std::size_t>& pending() const { return pending_; }
    // Position of cell `id` in pending(); -1 when it is not pending here.
    std::int64_t position(const std::string& id) const;
    // Executor-specific counters (worker restarts, watchdog kills, hosts).
    SweepSummary& summary() { return summary_; }

    // Train (or load) every distinct model the pending cells use before
    // any executes, so no pool part or worker trains a shared model twice.
    // Restarts the progress clock, so the rate excludes training.
    void prepare_models();

    enum class Ack {
        kRecorded,   // newly recorded: durable, counted, logged
        kDuplicate,  // already recorded (first append won); dropped
        kForeign,    // not a pending cell of this sweep; dropped
    };
    // Record one cell result: validate the id, dedup it against recorded
    // results, append it durably to the manifest, and only then count it
    // (sweep.cells.done, budget overrun, log line). `via` names where it
    // came from in the log. Thread-safe.
    Ack record(const std::string& id, const CellResult& r,
               const std::string& via = "");

    // The in-flight attempt on scheduler entry p failed: retry it with
    // backoff, or quarantine it in the manifest once its retries are spent.
    void attempt_failed(LeaseScheduler& sched, std::size_t p,
                        const std::string& reason);

    // Milliseconds until the next progress line is due, clamped to
    // [0, cap]; cap when the heartbeat is off.
    double ms_until_progress(double cap) const;
    // Emit the progress line when due: settled/pending cells, failed
    // (resumed and new quarantines), retries, rate and ETA, then the
    // executor's `suffix`. Thread-safe.
    void maybe_progress(const std::function<std::string()>& suffix = {});

    // Close the sweep out: check the manifest, apply cell_budget_abort
    // (after every dispatched cell is recorded, so the run stays
    // resumable), aggregate and write the CSV, and append the merged
    // metrics record (this process + `extra` + the resumed prior record).
    SweepSummary finish(const util::metrics::Snapshot* extra = nullptr);

private:
    const SweepSpec spec_;
    const SweepOptions opts_;
    core::ExperimentContext& ctx_;
    const std::vector<SweepCell> cells_;
    SweepSummary summary_;
    ManifestWriter manifest_;
    std::string prior_metrics_;  // the resumed manifest's metrics record
    std::map<std::string, CellResult> results_;
    std::vector<std::size_t> pending_;
    std::unordered_map<std::string, std::size_t> position_;
    std::int64_t failed_resumed_ = 0;  // quarantines carried in on resume
    std::int64_t quarantined_ = 0;     // quarantines recorded by this run
    mutable std::mutex mu_;
    util::Stopwatch clock_;
    double next_beat_s_;  // progress clock seconds
};

}  // namespace xs::sweep
