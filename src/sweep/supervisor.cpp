#include "sweep/supervisor.h"

#include "sweep/coordinator.h"
#include "sweep/lease.h"
#include "sweep/pool.h"
#include "sweep/wire.h"
#include "tensor/tensor.h"
#include "util/csv.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <string>

#include <poll.h>
#include <unistd.h>

namespace xs::sweep {

int worker_main(core::ExperimentContext& ctx, const SweepSpec& spec,
                int in_fd, int out_fd) {
    util::set_log_prefix("[w" + std::to_string(::getpid()) + "] ");
    const std::vector<SweepCell> cells = spec.expand();
    if (!wire::write_message(out_fd, wire::MsgType::kHello, "")) return 1;

    wire::Message msg;
    while (wire::read_message(in_fd, msg)) {
        if (msg.type == wire::MsgType::kShutdown) {
#if XS_TELEMETRY_ENABLED
            // Parting gift: this process's telemetry, merged by the
            // coordinator into the sweep-wide snapshot.
            wire::write_message(
                out_fd, wire::MsgType::kMetrics,
                util::metrics::to_json(util::metrics::snapshot()));
#endif
            break;
        }
        if (msg.type != wire::MsgType::kDeal) {
            util::log_error("worker: unexpected message type " +
                            std::to_string(static_cast<int>(msg.type)));
            return 1;
        }
        std::int64_t index = -1, attempt = 0;
        if (!wire::decode_deal(msg.payload, index, attempt) || index < 0 ||
            index >= static_cast<std::int64_t>(cells.size())) {
            util::log_error("worker: malformed deal '" + msg.payload + "'");
            return 1;
        }
        const SweepCell& cell = cells[static_cast<std::size_t>(index)];
        XS_DLOG("worker: dealt cell " + cell.id() + " (attempt " +
                std::to_string(attempt + 1) + ")");
        try {
            // Fault-injection seam: crash/hang/fail here, by grid index, on
            // the configured attempt — the supervisor's recovery paths are
            // exercised by real SIGKILLs and real silence, not mocks.
            util::fault::execute(util::fault::at("cell", index, attempt),
                                 "cell", index);
            CellResult r = std::move(run_sweep_group(ctx, spec, {&cell})[0]);
            r.attempts = attempt + 1;
            if (!wire::write_message(out_fd, wire::MsgType::kAck,
                                     encode_manifest_line(cell.id(), r)))
                return 1;
        } catch (const std::exception& e) {
            // Recoverable: report and stay alive for the next deal. The
            // coordinator owns the retry/quarantine decision.
            util::log_warn("worker: cell " + cell.id() + " failed: " +
                           e.what());
            if (!wire::write_message(out_fd, wire::MsgType::kFail, e.what()))
                return 1;
        }
    }
    return 0;
}

std::vector<std::string> worker_command_from_argv(int argc, char** argv) {
    std::vector<std::string> cmd;
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        cmd.push_back(exe);
    } else {
        cmd.push_back(argc > 0 ? argv[0] : "");
    }
    const auto supervision_flag = [](const std::string& a) {
        return a == "--worker" || a.rfind("--worker=", 0) == 0 ||
               a.rfind("--workers", 0) == 0 || a.rfind("--wire-in", 0) == 0 ||
               a.rfind("--wire-out", 0) == 0 || a.rfind("--agent", 0) == 0;
    };
    for (int i = 1; i < argc; ++i)
        if (!supervision_flag(argv[i])) cmd.push_back(argv[i]);
    return cmd;
}

SweepSummary run_supervised(core::ExperimentContext& ctx, const SweepSpec& spec,
                            const SweepOptions& opts,
                            const SupervisorOptions& sup) {
    tensor::check(!sup.worker_cmd.empty(),
                  "supervisor: worker_cmd is empty (use "
                  "worker_command_from_argv)");
    tensor::check(sup.workers >= 1, "supervisor: need at least one worker");

    SweepCoordinator coord(ctx, spec, opts);
    if (coord.pending().empty()) return coord.finish();
    const std::vector<SweepCell>& cells = coord.cells();
    SweepSummary& summary = coord.summary();
    // Train (or load) every distinct model before forking: workers then
    // resolve the same specs from the on-disk model cache instead of each
    // training a private copy.
    coord.prepare_models();

    LeaseScheduler sched(coord.pending(), sup.max_cell_retries,
                         sup.retry_backoff_ms);
    const std::size_t nworkers = static_cast<std::size_t>(
        std::min<std::int64_t>(sup.workers,
                               static_cast<std::int64_t>(sched.size())));
    WorkerPool pool(sup.worker_cmd, sup.max_worker_restarts);
    tensor::check(pool.spawn(nworkers),
                  "supervisor: failed to spawn worker process");

    std::vector<pollfd> fds;
    while (!sched.all_done()) {
        const double now = now_ms();

        // Deal: lowest-index eligible cell to each idle ready worker. The
        // per-cell budget is the pool's watchdog deadline.
        for (std::int64_t wi; (wi = pool.idle_worker()) >= 0;) {
            const std::int64_t p = sched.next_eligible(now);
            if (p < 0) break;  // nothing eligible right now
            const std::size_t pi = static_cast<std::size_t>(p);
            const std::string payload = wire::encode_deal(
                static_cast<std::int64_t>(sched.at(pi).cell_index),
                sched.attempts_of(pi));
            if (pool.deal(static_cast<std::size_t>(wi), p, payload,
                          opts.cell_budget_ms))
                sched.deal(pi, now, 0.0, wi);
        }

        // Abort only when nobody is left to make progress; the manifest
        // already holds every finished cell for --resume.
        tensor::check(pool.alive_count() > 0,
                      "supervisor: all workers dead with " +
                          std::to_string(sched.size() - sched.done_count()) +
                          " cell(s) undone; fix the fault and rerun with "
                          "--resume");

        // Poll timeout: the nearest backoff expiry, watchdog deadline or
        // progress line, capped at 1 s so liveness checks keep running.
        const double timeout = coord.ms_until_progress(
            std::min(sched.next_event_ms(now, 1000.0),
                     pool.next_deadline_ms(now, 1000.0)));
        fds.clear();
        pool.add_poll_fds(fds);
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(timeout)));

        for (const PoolEvent& ev : pool.pump()) {
            const std::size_t p = static_cast<std::size_t>(ev.token);
            if (ev.kind == PoolEvent::Kind::kAck) {
                std::string id;
                CellResult r;
                tensor::check(decode_manifest_line(ev.text, id, r),
                              "supervisor: worker sent an undecodable ack");
                tensor::check(ev.token >= 0 &&
                                  id == cells[sched.at(p).cell_index].id(),
                              "supervisor: ack for '" + id +
                                  "' does not match the dealt cell");
                coord.record(id, r);
                sched.ack(p);
            } else if (ev.kind == PoolEvent::Kind::kFail) {
                if (ev.token >= 0) coord.attempt_failed(sched, p, ev.text);
            } else {
                // A dead worker's cell is re-dealt; the slot respawns while
                // the restart budget lasts, then retires and the pool
                // shrinks (only an empty pool aborts the sweep).
                std::string detail = ev.text;
                if (ev.watchdog) {
                    // A watchdog kill *is* a budget overrun: the attempt
                    // held the cell past cell_budget_ms.
                    ++summary.watchdog_kills;
                    ++summary.cells_over_budget;
                    detail = "watchdog-killed after " +
                             util::fmt(opts.cell_budget_ms, 0) +
                             " ms on cell " +
                             cells[sched.at(p).cell_index].id();
                }
                if (ev.token >= 0)
                    coord.attempt_failed(sched, p, "worker " + detail);
                util::log_warn(
                    "supervisor: worker " + detail +
                    (ev.respawned
                         ? "; respawned as pid " +
                               std::to_string(pool[ev.worker].pid) + " (" +
                               std::to_string(pool.restarts_left()) +
                               " restart(s) left)"
                         : "; slot retired (restart budget exhausted)"));
            }
        }

        coord.maybe_progress([&] {
            return "; workers: " + std::to_string(pool.alive_count()) + "/" +
                   std::to_string(nworkers) + " alive, " +
                   std::to_string(pool.busy_count()) + " busy";
        });
    }

    summary.worker_restarts = pool.restarts();
    util::metrics::Snapshot workers;
    pool.shutdown(5000.0, &workers);
    return coord.finish(&workers);
}

}  // namespace xs::sweep
