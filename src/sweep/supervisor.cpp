#include "sweep/supervisor.h"

#include "sweep/lease.h"
#include "sweep/pool.h"
#include "sweep/wire.h"
#include "tensor/tensor.h"
#include "util/csv.h"
#include "util/faultinject.h"
#include "util/log.h"
#include "util/metrics.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <set>
#include <string>

#include <poll.h>
#include <unistd.h>

namespace xs::sweep {

namespace {

double now_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

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

    const std::vector<SweepCell> cells = spec.expand();
    SweepSummary summary;
    summary.cells_total = static_cast<std::int64_t>(cells.size());
    summary.manifest_path = ctx.csv_path(opts.manifest_name);
    summary.csv_path = ctx.csv_path(opts.csv_name);

    const std::string config_fp = sweep_config_fingerprint(ctx, spec);
    std::map<std::string, CellResult> results;
    bool had_config = false;
    if (opts.resume)
        results = load_resume_state(summary.manifest_path, config_fp, summary,
                                    had_config);
    const std::string prior_metrics = summary.metrics_json;
    ManifestWriter manifest(summary.manifest_path, opts.resume);
    tensor::check(manifest.ok(), "supervisor: cannot open manifest '" +
                                     summary.manifest_path + "' for writing");
    if (!had_config) manifest.record_config(config_fp);

    // Undone cells in expansion order (resume skips recorded ones, failed
    // included), truncated by max_cells like the in-process runner.
    std::vector<std::size_t> undone;
    for (std::size_t i = 0; i < cells.size(); ++i)
        if (results.find(cells[i].id()) == results.end()) undone.push_back(i);
    summary.cells_resumed =
        summary.cells_total - static_cast<std::int64_t>(undone.size());
    if (opts.max_cells >= 0 &&
        undone.size() > static_cast<std::size_t>(opts.max_cells))
        undone.resize(static_cast<std::size_t>(opts.max_cells));
    summary.cells_pending = summary.cells_total - summary.cells_resumed -
                            static_cast<std::int64_t>(undone.size());

    LeaseScheduler sched(sup.max_cell_retries, sup.retry_backoff_ms);
    for (const std::size_t i : undone) sched.add(i);

    if (sched.size() == 0) {
        tensor::check(manifest.ok(),
                      "supervisor: manifest writes to '" +
                          summary.manifest_path + "' failed");
        aggregate_and_write_csv(cells, spec, results, summary);
#if XS_TELEMETRY_ENABLED
        util::metrics::Snapshot final_snap = util::metrics::snapshot();
        merge_prior_metrics(prior_metrics, final_snap);
        summary.metrics_json = util::metrics::to_json(final_snap);
        manifest.record_metrics(summary.metrics_json);
#endif
        return summary;
    }

    // Train (or load) every distinct model before forking: workers then
    // resolve the same specs from the on-disk model cache instead of each
    // training a private copy.
    {
        std::set<std::string> seen;
        for (const std::size_t i : undone) {
            const SweepCell& c = cells[i];
            core::ModelSpec ms = ctx.spec(c.variant, c.num_classes,
                                          c.prune.method, c.prune.sparsity,
                                          c.mitigation.wct);
            if (seen.insert(ms.key()).second) ctx.prepared(ms);
        }
    }

    // A worker dying mid-deal surfaces as EPIPE on our write, not a signal.
    ::signal(SIGPIPE, SIG_IGN);

    const std::size_t nworkers = static_cast<std::size_t>(
        std::min<std::int64_t>(sup.workers,
                               static_cast<std::int64_t>(sched.size())));
    WorkerPool pool(sup.worker_cmd, sup.max_worker_restarts);
    tensor::check(pool.spawn(nworkers),
                  "supervisor: failed to spawn worker process");
    std::int64_t quarantined = 0;

    // Quarantine or schedule a retry for scheduler entry p after a failed
    // attempt.
    const auto attempt_failed = [&](std::size_t p, const std::string& reason) {
        const SweepCell& cell = cells[sched.at(p).cell_index];
        const std::int64_t attempts = sched.attempts_of(p);
        if (sched.fail(p, now_ms()) == LeaseScheduler::FailOutcome::kRetry) {
            const double backoff =
                sup.retry_backoff_ms *
                std::pow(2.0, static_cast<double>(attempts - 1));
            ++summary.cell_retries;
            XS_COUNT("sweep.cells.retried", 1);
            util::log_warn("supervisor: cell " + cell.id() + " attempt " +
                           std::to_string(attempts) + " failed (" + reason +
                           "); retrying in " + util::fmt(backoff, 0) + " ms");
        } else {
            CellResult fr;
            fr.status = "failed";
            fr.reason = reason;
            fr.attempts = attempts;
            fr.backend = xbar::backend_name(cell.backend);
            manifest.record(cell.id(), fr);
            results[cell.id()] = fr;
            ++quarantined;
            util::log_warn("supervisor: quarantined cell " + cell.id() +
                           " after " + std::to_string(attempts) +
                           " attempt(s): " + reason);
        }
    };

    // Reap a dead worker, re-deal its cell, and respawn into the slot while
    // the restart budget lasts; past it the slot retires and the pool
    // shrinks (graceful degradation — only an empty pool aborts the sweep).
    const auto worker_died = [&](std::size_t wi, const std::string& how) {
        const std::int64_t dealt = pool[wi].dealt;
        bool respawned = false;
        const std::string reaped = pool.reap_and_respawn(wi, respawned);
        const std::string detail = how.empty() ? reaped : how;
        if (dealt >= 0)
            attempt_failed(static_cast<std::size_t>(dealt),
                           "worker " + detail);
        if (respawned) {
            summary.worker_restarts = pool.restarts();
            util::log_warn("supervisor: worker " + detail +
                           "; respawned as pid " +
                           std::to_string(pool[wi].pid) + " (" +
                           std::to_string(pool.restarts_left()) +
                           " restart(s) left)");
        } else {
            util::log_warn("supervisor: worker " + detail +
                           "; slot retired (restart budget exhausted)");
        }
    };

    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_owner;
    const util::Stopwatch run_clock;
    double next_beat = opts.progress_sec;
    while (!sched.all_done()) {
        const double now = now_ms();

        // Deal: lowest-index eligible cell to each idle ready worker. The
        // lease deadline doubles as the watchdog deadline.
        for (std::size_t wi = 0; wi < nworkers; ++wi) {
            PoolWorker& w = pool[wi];
            if (!w.alive || !w.ready || w.dealt >= 0) continue;
            const std::int64_t p = sched.next_eligible(now);
            if (p < 0) break;  // nothing eligible right now
            const std::size_t pi = static_cast<std::size_t>(p);
            const std::size_t ci = sched.at(pi).cell_index;
            sched.deal(pi, now, opts.cell_budget_ms,
                       static_cast<std::int64_t>(wi));
            const std::string payload = wire::encode_deal(
                static_cast<std::int64_t>(ci), sched.attempts_of(pi) - 1);
            if (!wire::write_message(w.deal_fd, wire::MsgType::kDeal,
                                     payload)) {
                sched.undeal(pi);  // the deal never reached a worker
                pool.kill(wi);
                worker_died(wi, "rejected a deal (broken pipe)");
                continue;
            }
            w.dealt = p;
            w.ready = false;
        }

        // Abort only when nobody is left to make progress; the manifest
        // already holds every finished cell for --resume.
        tensor::check(pool.alive_count() > 0,
                      "supervisor: all workers dead with " +
                          std::to_string(sched.size() - sched.done_count()) +
                          " cell(s) undone; fix the fault and rerun with "
                          "--resume");

        // Poll timeout: the nearest lease deadline or backoff expiry,
        // capped at 1 s so liveness checks keep running regardless.
        double timeout = sched.next_event_ms(now, 1000.0);
        if (opts.progress_sec > 0.0)
            timeout = std::max(
                std::min(timeout,
                         (next_beat - run_clock.seconds()) * 1000.0),
                0.0);

        fds.clear();
        fd_owner.clear();
        for (std::size_t wi = 0; wi < nworkers; ++wi)
            if (pool[wi].alive) {
                fds.push_back({pool[wi].ack_fd, POLLIN, 0});
                fd_owner.push_back(wi);
            }
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
               static_cast<int>(std::ceil(timeout)));

        // Drain acks/hellos/fails first, then the death and watchdog paths:
        // an ack already in the pipe always beats the axe.
        for (std::size_t fi = 0; fi < fds.size(); ++fi) {
            if (fds[fi].revents == 0) continue;
            PoolWorker& w = pool[fd_owner[fi]];
            w.reader.fill();
            wire::Message msg;
            while (w.reader.pop(msg)) {
                switch (msg.type) {
                    case wire::MsgType::kHello:
                        w.ready = true;
                        break;
                    case wire::MsgType::kAck: {
                        std::string id;
                        CellResult r;
                        tensor::check(
                            decode_manifest_line(msg.payload, id, r),
                            "supervisor: worker sent an undecodable ack");
                        tensor::check(
                            w.dealt >= 0 &&
                                id == cells[sched.at(static_cast<std::size_t>(
                                                         w.dealt))
                                                .cell_index]
                                          .id(),
                            "supervisor: ack for '" + id +
                                "' does not match the dealt cell");
                        manifest.record(id, r);  // durable before counted
                        results[id] = r;
                        XS_COUNT("sweep.cells.done", 1);
                        sched.ack(static_cast<std::size_t>(w.dealt));
                        ++summary.cells_executed;
                        if (opts.cell_budget_ms > 0.0 &&
                            r.wall_ms > opts.cell_budget_ms) {
                            ++summary.cells_over_budget;
                            util::log_warn(
                                "sweep cell " + id + " over budget: " +
                                util::fmt(r.wall_ms, 0) + " ms > " +
                                util::fmt(opts.cell_budget_ms, 0) + " ms");
                        }
                        w.dealt = -1;
                        w.ready = true;
                        util::log_info(
                            "sweep cell " +
                            std::to_string(sched.done_count()) + "/" +
                            std::to_string(sched.size()) + " " + id +
                            ": acc " + util::fmt(r.accuracy) + "% (" +
                            util::fmt(r.wall_ms, 0) + " ms, attempt " +
                            std::to_string(r.attempts) + ")");
                        break;
                    }
                    case wire::MsgType::kFail:
                        if (w.dealt >= 0)
                            attempt_failed(static_cast<std::size_t>(w.dealt),
                                           msg.payload);
                        w.dealt = -1;
                        w.ready = true;  // the worker itself is fine
                        break;
                    default:
                        tensor::check(false,
                                      "supervisor: unexpected message type " +
                                          std::to_string(static_cast<int>(
                                              msg.type)));
                }
            }
            if (w.reader.finished()) worker_died(fd_owner[fi], "");
        }

        // Watchdog: SIGKILL workers holding a cell past its lease. The kill
        // surfaces as EOF next iteration, but reaping here keeps the
        // re-deal latency at one loop turn.
        for (const std::size_t p : sched.expired(now_ms())) {
            const std::size_t wi =
                static_cast<std::size_t>(sched.at(p).owner);
            pool.kill(wi);
            ++summary.watchdog_kills;
            // A watchdog kill *is* a budget overrun: the attempt held the
            // cell past cell_budget_ms, so the supervised path counts it
            // like the in-process runner counts a slow cell.
            ++summary.cells_over_budget;
            worker_died(wi, "watchdog-killed after " +
                                util::fmt(opts.cell_budget_ms, 0) +
                                " ms on cell " +
                                cells[sched.at(p).cell_index].id());
        }

        // Progress heartbeat: the poll timeout is capped so this fires on
        // schedule even when the pipes are quiet.
        if (opts.progress_sec > 0.0 && run_clock.seconds() >= next_beat) {
            next_beat = run_clock.seconds() + opts.progress_sec;
            const double elapsed = run_clock.seconds();
            const double done = static_cast<double>(sched.done_count());
            const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
            const double left =
                static_cast<double>(sched.size() - sched.done_count());
            util::log_info(
                "progress: " + std::to_string(sched.done_count()) + "/" +
                std::to_string(sched.size()) + " cells (" +
                std::to_string(quarantined) + " failed, " +
                std::to_string(summary.cell_retries) + " retries), " +
                util::fmt(rate, 2) + " cells/s, eta " +
                (rate > 0.0 ? util::fmt(left / rate, 0) + " s" : "?") +
                "; workers: " + std::to_string(pool.alive_count()) + "/" +
                std::to_string(nworkers) + " alive, " +
                std::to_string(pool.busy_count()) + " busy");
        }
    }

#if XS_TELEMETRY_ENABLED
    util::metrics::Snapshot merged = util::metrics::snapshot();
    pool.shutdown(5000.0, &merged);
#else
    pool.shutdown(5000.0, nullptr);
#endif

    tensor::check(manifest.ok(), "supervisor: manifest writes to '" +
                                     summary.manifest_path +
                                     "' failed; resume state is incomplete");
    aggregate_and_write_csv(cells, spec, results, summary);
#if XS_TELEMETRY_ENABLED
    merge_prior_metrics(prior_metrics, merged);
    summary.metrics_json = util::metrics::to_json(merged);
    manifest.record_metrics(summary.metrics_json);
#endif
    return summary;
}

}  // namespace xs::sweep
