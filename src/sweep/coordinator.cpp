#include "sweep/coordinator.h"

#include "tensor/tensor.h"
#include "util/csv.h"

#include <algorithm>

namespace xs::sweep {

namespace {

// Resume support: load the manifest, warn (loudly, with a count) about
// corrupt lines, and refuse a fingerprint mismatch.
ManifestLoad load_resume_state(const std::string& manifest_path,
                               const std::string& config_fp) {
    ManifestLoad load = load_manifest_file(manifest_path);
    if (load.skipped_lines > 0)
        util::log_warn("sweep: manifest '" + manifest_path + "' has " +
                       std::to_string(load.skipped_lines) +
                       " corrupt line(s); the affected cells will re-run");
    tensor::check(load.config.empty() || load.config == config_fp,
                  "sweep: manifest '" + manifest_path +
                      "' was recorded under a different configuration (" +
                      load.config + " vs " + config_fp +
                      "); rerun without --resume or delete it");
    return load;
}

}  // namespace

SweepCoordinator::SweepCoordinator(core::ExperimentContext& ctx,
                                   const SweepSpec& spec,
                                   const SweepOptions& opts)
    : spec_(spec),
      opts_(opts),
      ctx_(ctx),
      cells_(spec.expand()),
      manifest_(ctx.csv_path(opts.manifest_name), opts.resume),
      next_beat_s_(opts.progress_sec) {
    summary_.cells_total = static_cast<std::int64_t>(cells_.size());
    summary_.manifest_path = ctx.csv_path(opts.manifest_name);
    summary_.csv_path = ctx.csv_path(opts.csv_name);
    tensor::check(manifest_.ok(), "sweep: cannot open manifest '" +
                                      summary_.manifest_path + "' for writing");

    const std::string config_fp = sweep_config_fingerprint(ctx, spec);
    bool had_config = false;
    if (opts.resume) {
        ManifestLoad load =
            load_resume_state(summary_.manifest_path, config_fp);
        summary_.manifest_lines_skipped = load.skipped_lines;
        had_config = !load.config.empty();
        // Telemetry totals accumulate across resumes instead of resetting.
        prior_metrics_ = std::move(load.metrics_json);
        results_ = std::move(load.results);
    }
    if (!had_config) manifest_.record_config(config_fp);
    for (const auto& kv : results_)
        if (kv.second.failed()) ++failed_resumed_;

    // Pending cells in expansion order (resume skips recorded ones — both
    // finished and quarantined; delete the manifest to retry a quarantine).
    for (std::size_t i = 0; i < cells_.size(); ++i)
        if (results_.find(cells_[i].id()) == results_.end())
            pending_.push_back(i);
    summary_.cells_resumed =
        summary_.cells_total - static_cast<std::int64_t>(pending_.size());
    if (opts.max_cells >= 0 &&
        pending_.size() > static_cast<std::size_t>(opts.max_cells))
        pending_.resize(static_cast<std::size_t>(opts.max_cells));
    for (std::size_t p = 0; p < pending_.size(); ++p)
        position_.emplace(cells_[pending_[p]].id(), p);
}

std::int64_t SweepCoordinator::position(const std::string& id) const {
    const auto it = position_.find(id);
    return it == position_.end() ? -1 : static_cast<std::int64_t>(it->second);
}

void SweepCoordinator::prepare_models() {
    std::vector<SweepCell> cells;
    for (const std::size_t i : pending_) cells.push_back(cells_[i]);
    for (const core::ModelSpec& ms : distinct_model_specs(ctx_, cells))
        ctx_.prepared(ms);
    clock_.reset();
}

SweepCoordinator::Ack SweepCoordinator::record(const std::string& id,
                                               const CellResult& r,
                                               const std::string& via) {
    const std::string from = via.empty() ? "" : " from " + via;
    std::lock_guard<std::mutex> lock(mu_);
    if (results_.find(id) != results_.end()) {
        // A slow host finishing after its lease was re-dealt, or an agent
        // replaying its outbox after a reconnect: the first append won.
        ++summary_.duplicate_acks;
        XS_COUNT("sweep.service.duplicate_acks", 1);
        util::log_info("sweep: duplicate ack for " + id + from + " deduped");
        return Ack::kDuplicate;
    }
    if (position_.find(id) == position_.end()) {
        // Recording an id that is not a cell of this sweep would poison the
        // manifest for resume.
        util::log_warn("sweep: dropping an ack for a cell outside this "
                       "sweep (" + id + ")" + from);
        return Ack::kForeign;
    }
    manifest_.record(id, r);  // durable before counted
    results_.emplace(id, r);
    XS_COUNT("sweep.cells.done", 1);
    const std::int64_t n = ++summary_.cells_executed;
    if (opts_.cell_budget_ms > 0.0 && r.wall_ms > opts_.cell_budget_ms) {
        ++summary_.cells_over_budget;
        util::log_warn("sweep cell " + id + " over budget: " +
                       util::fmt(r.wall_ms, 0) + " ms > " +
                       util::fmt(opts_.cell_budget_ms, 0) + " ms");
    }
    util::log_info("sweep cell " + std::to_string(n) + "/" +
                   std::to_string(pending_.size()) + " " + id + ": acc " +
                   util::fmt(r.accuracy) + "% (" + util::fmt(r.wall_ms, 0) +
                   " ms, attempt " + std::to_string(r.attempts) + ")" + from);
    return Ack::kRecorded;
}

void SweepCoordinator::attempt_failed(LeaseScheduler& sched, std::size_t p,
                                      const std::string& reason) {
    const SweepCell& cell = cells_[sched.at(p).cell_index];
    const std::int64_t attempts = sched.attempts_of(p);
    const double now = now_ms();
    std::lock_guard<std::mutex> lock(mu_);
    if (sched.fail(p, now) == LeaseScheduler::FailOutcome::kRetry) {
        ++summary_.cell_retries;
        XS_COUNT("sweep.cells.retried", 1);
        util::log_warn("sweep: cell " + cell.id() + " attempt " +
                       std::to_string(attempts) + " failed (" + reason +
                       "); retrying in " +
                       util::fmt(sched.at(p).eligible_at - now, 0) + " ms");
        return;
    }
    CellResult fr;
    fr.status = "failed";
    fr.reason = reason;
    fr.attempts = attempts;
    fr.backend = xbar::backend_name(cell.backend);
    manifest_.record(cell.id(), fr);
    results_[cell.id()] = fr;
    ++quarantined_;
    util::log_warn("sweep: quarantined cell " + cell.id() + " after " +
                   std::to_string(attempts) + " attempt(s): " + reason);
}

double SweepCoordinator::ms_until_progress(double cap) const {
    if (opts_.progress_sec <= 0.0) return cap;
    std::lock_guard<std::mutex> lock(mu_);
    return std::clamp((next_beat_s_ - clock_.seconds()) * 1000.0, 0.0, cap);
}

void SweepCoordinator::maybe_progress(
    const std::function<std::string()>& suffix) {
    if (opts_.progress_sec <= 0.0) return;
    std::lock_guard<std::mutex> lock(mu_);
    const double elapsed = clock_.seconds();
    if (elapsed < next_beat_s_) return;
    next_beat_s_ = elapsed + opts_.progress_sec;
    const std::int64_t settled = summary_.cells_executed + quarantined_;
    const double rate =
        elapsed > 0.0 ? static_cast<double>(settled) / elapsed : 0.0;
    const double left = static_cast<double>(
        static_cast<std::int64_t>(pending_.size()) - settled);
    util::log_info(
        "progress: " + std::to_string(settled) + "/" +
        std::to_string(pending_.size()) + " cells (" +
        std::to_string(failed_resumed_ + quarantined_) + " failed, " +
        std::to_string(summary_.cell_retries) + " retries), " +
        util::fmt(rate, 2) + " cells/s, eta " +
        (rate > 0.0 ? util::fmt(left / rate, 0) + " s" : "--") +
        (suffix ? suffix() : ""));
}

SweepSummary SweepCoordinator::finish(const util::metrics::Snapshot* extra) {
    // A bad manifest stream (disk full, I/O error) silently drops resume
    // state — fail loudly rather than let --resume re-run finished cells.
    tensor::check(manifest_.ok(), "sweep: manifest writes to '" +
                                      summary_.manifest_path +
                                      "' failed; resume state is incomplete");
    // Cells neither recorded nor quarantined here stay resumable: those cut
    // by max_cells, and those a draining service never dealt.
    summary_.cells_pending = summary_.cells_total - summary_.cells_resumed -
                             summary_.cells_executed - quarantined_;
    tensor::check(!(opts_.cell_budget_abort && summary_.cells_over_budget > 0),
                  "sweep: " + std::to_string(summary_.cells_over_budget) +
                      " cell(s) exceeded the " +
                      util::fmt(opts_.cell_budget_ms, 0) +
                      " ms budget (--cell-budget-abort)");
    aggregate_and_write_csv(cells_, spec_, results_, summary_);
#if XS_TELEMETRY_ENABLED
    // Snapshot after aggregation so the aggregate phase timing is included;
    // a resumed run folds the prior record's totals in, so the manifest's
    // newest metrics record covers the whole sweep.
    util::metrics::Snapshot snap = util::metrics::snapshot();
    if (extra != nullptr) util::metrics::merge(snap, *extra);
    merge_prior_metrics(prior_metrics_, snap);
    summary_.metrics_json = util::metrics::to_json(snap);
    manifest_.record_metrics(summary_.metrics_json);
#else
    (void)extra;
#endif
    return summary_;
}

}  // namespace xs::sweep
