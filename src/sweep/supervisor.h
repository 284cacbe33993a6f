// Crash-isolated multi-process sweep execution (DESIGN.md §9).
//
// The supervisor runs a SweepSpec grid with the cells executed in forked
// worker *processes* instead of threads, so a crash (solver bug, OOM kill,
// injected fault) or a hang takes down one worker and one attempt of one
// cell — never the sweep. run_supervised is only the pipe transport loop:
// it deals cells to the WorkerPool (sweep/pool.h) over anonymous pipes
// (sweep/wire.h) and reacts to its ack/fail/death events. Everything else
// is the shared SweepCoordinator (sweep/coordinator.h): each ack becomes a
// durable manifest append (the fsync'd append *is* the ack), a failed
// attempt (thrown error, worker death, watchdog kill) retries with
// exponential backoff and quarantines after the retry budget instead of
// aborting, and the resume, progress and aggregation rules are the
// runner's own.
//
// Determinism: workers execute the same run_sweep_group() the in-process
// SweepRunner uses, one cell per deal, with per-cell seeds derived from the
// cell identity, so the aggregate CSV is byte-identical at any worker
// count, across kills, retries, and resumes — and identical to a
// single-process run of the same spec (minus quarantined cells' groups).
//
// Worker processes are the *same binary* re-exec'd with --worker
// --wire-in=<fd> --wire-out=<fd> (fork alone is unsafe under the process
// thread pool; fork+exec restarts clean). The driver wires this up with
// worker_command_from_argv() + worker_main().
#pragma once

#include "core/experiments.h"
#include "sweep/runner.h"
#include "sweep/spec.h"

#include <cstdint>
#include <string>
#include <vector>

namespace xs::sweep {

struct SupervisorOptions {
    // Worker processes to fork (capped at the number of pending cells).
    std::int64_t workers = 2;
    // argv prefix of the worker command: the executable plus every
    // experiment/spec flag, so the child reconstructs an identical
    // ExperimentContext and SweepSpec. The supervisor appends
    // --worker --wire-in=<fd> --wire-out=<fd>.
    std::vector<std::string> worker_cmd;
    // Re-deal a failed cell this many times after its first attempt before
    // quarantining it (total attempts = retries + 1).
    std::int64_t max_cell_retries = 2;
    // First re-deal waits this long, doubling per attempt (250, 500, 1000…).
    double retry_backoff_ms = 250.0;
    // Worker respawns allowed across the pool before dead slots are retired
    // instead of restarted. The sweep only aborts when every slot is gone
    // and undone cells remain (the manifest keeps the resume state).
    std::int64_t max_worker_restarts = 4;
};

// Execute the sweep under process supervision through the same
// SweepCoordinator as SweepRunner::run(); opts.cell_budget_ms becomes the
// per-cell watchdog deadline (a worker holding a cell past it is SIGKILLed,
// the cell re-dealt, and the kill counted as a budget overrun, so
// opts.cell_budget_abort applies). Throws only on coordinator-side failures
// (manifest I/O, fingerprint mismatch, the whole pool dead, a budget
// abort); per-cell failures are quarantined, not thrown.
SweepSummary run_supervised(core::ExperimentContext& ctx, const SweepSpec& spec,
                            const SweepOptions& opts,
                            const SupervisorOptions& sup);

// Child-process entry: read kDeal frames from in_fd, execute cells, write
// kAck (the cell's manifest line) / kFail (error text) to out_fd until
// kShutdown or EOF. Returns the process exit code.
int worker_main(core::ExperimentContext& ctx, const SweepSpec& spec,
                int in_fd, int out_fd);

// Build SupervisorOptions::worker_cmd from this process's argv: the
// executable resolved via /proc/self/exe (argv[0] may be PATH-relative and
// the cwd may differ) plus every original flag except the supervision ones
// (--worker, --wire-*, --workers), which the supervisor re-appends per
// worker.
std::vector<std::string> worker_command_from_argv(int argc, char** argv);

}  // namespace xs::sweep
