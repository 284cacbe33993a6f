#include "sweep/runner.h"

#include "map/energy.h"
#include "sweep/coordinator.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <set>
#include <sstream>

namespace xs::sweep {

using util::fmt_g;

std::vector<core::ModelSpec> distinct_model_specs(
    const core::ExperimentContext& ctx, const std::vector<SweepCell>& cells) {
    std::set<std::string> seen;
    std::vector<core::ModelSpec> specs;
    for (const SweepCell& c : cells) {
        core::ModelSpec ms = ctx.spec(c.variant, c.num_classes,
                                      c.prune.method, c.prune.sparsity,
                                      c.mitigation.wct);
        if (seen.insert(ms.key()).second) specs.push_back(std::move(ms));
    }
    return specs;
}

// The one sweep work unit: ≥1 cells of one grid point (they share every
// axis except the repeat index), so one EvalConfig, built from the head
// cell, serves them all; only the per-cell seeds differ. Safe to call
// concurrently from pool parts: the context's caches are locked, the
// shared model is only read, and all scratch is call-local. Also the body
// of the supervisor's worker processes (sweep/supervisor.h), one cell at a
// time.
std::vector<CellResult> run_sweep_group(
    core::ExperimentContext& ctx, const SweepSpec& spec,
    const std::vector<const SweepCell*>& cells) {
    tensor::check(!cells.empty(), "run_sweep_group: empty cell group");
    const std::size_t lanes = cells.size();
    XS_TIMER_NS("sweep.cell.ns");
    XS_TRACE_SPAN(lanes == 1 ? "cell" : "cell_group");
    XS_COUNT("sweep.cells.executed", static_cast<std::uint64_t>(lanes));
    const auto t0 = std::chrono::steady_clock::now();
    const SweepCell& head = *cells.front();
    const core::ModelSpec model_spec =
        ctx.spec(head.variant, head.num_classes, head.prune.method,
                 head.prune.sparsity, head.mitigation.wct);
    core::PreparedModel& model = [&]() -> core::PreparedModel& {
        XS_TIMER_NS("sweep.phase.prepare.ns");
        XS_TRACE_SPAN("cell.prepare");
        return ctx.prepared(model_spec);
    }();

    core::EvalConfig eval = ctx.eval_config(model, head.prune.method,
                                            head.xbar_size,
                                            head.mitigation.rearrange);
    eval.backend = head.backend;
    eval.xbar.device.sigma_variation = head.sigma;
    eval.xbar.parasitics.r_driver *= head.parasitic_scale;
    eval.xbar.parasitics.r_wire_row *= head.parasitic_scale;
    eval.xbar.parasitics.r_wire_col *= head.parasitic_scale;
    eval.xbar.parasitics.r_sense *= head.parasitic_scale;
    eval.faults.p_stuck_min = head.faults.p_stuck_min;
    eval.faults.p_stuck_max = head.faults.p_stuck_max;
    if (head.quant_levels > 0) eval.conductance_levels = head.quant_levels;
    eval.compensate_columns = head.mitigation.compensate;

    std::vector<std::uint64_t> seeds(lanes);
    for (std::size_t r = 0; r < lanes; ++r)
        seeds[r] = cell_seed(ctx.seed(), *cells[r]);

    std::vector<core::EvalResult> per(lanes);
    {
        XS_TIMER_NS("sweep.phase.eval.ns");
        XS_TRACE_SPAN("cell.eval");
        if (spec.nf_only) {
            // NF is a parasitics metric (paper Fig. 3(d)): no inference
            // pass, no device variation.
            eval.include_variation = false;
            for (std::size_t r = 0; r < lanes; ++r) {
                eval.seed = seeds[r];
                per[r] = core::measure_nf(model.model, eval);
            }
        } else {
            const data::TrainTest& tt = ctx.dataset(head.num_classes);
            per = core::evaluate_repeats_on_crossbars(model.model, tt.test,
                                                      eval, seeds);
        }
    }
    const map::EnergyReport energy = map::estimate_energy(
        model.model, head.prune.method, eval.xbar, map::EnergyConfig{});

    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count() /
                           static_cast<double>(lanes);
    std::vector<CellResult> out(lanes);
    for (std::size_t r = 0; r < lanes; ++r) {
        out[r].backend = xbar::backend_name(head.backend);
        out[r].accuracy = per[r].accuracy;
        out[r].nf_mean = per[r].nf_mean;
        out[r].energy_pj = energy.total_energy_pj();
        out[r].software_acc = model.software_accuracy;
        out[r].tiles = per[r].total_tiles;
        out[r].solver_failures = per[r].unconverged_tiles;
        out[r].wall_ms = wall_ms;
    }
    return out;
}

std::uint64_t cell_seed(std::uint64_t master_seed, const SweepCell& cell) {
    std::uint64_t h = 1469598103934665603ULL ^
                      (master_seed * 0x9E3779B97F4A7C15ULL);
    for (const char ch : cell.seed_key())
        h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ULL;
    return h + static_cast<std::uint64_t>(cell.repeat) * 0x9E3779B97F4A7C15ULL;
}

std::string sweep_config_fingerprint(const core::ExperimentContext& ctx,
                                     const SweepSpec& spec) {
    // Refusing to resume under a different configuration needs every input
    // that changes cell results: the context fingerprint, the measurement
    // mode, and a sampler tag — bump the tag whenever the Rng draw stream
    // changes (e.g. the Box–Muller → ziggurat switch), so a manifest
    // recorded under the old sampler refuses to resume instead of mixing two
    // draw universes into one CSV no fresh run could reproduce. "/cold"
    // names the solve start every cell uses; it stays so manifests written
    // while the solve start was still selectable keep resuming.
    return ctx.fingerprint() + "/cold" + (spec.nf_only ? "/nf" : "") +
           "/rng-zig128";
}

void merge_prior_metrics(const std::string& prior_json,
                         util::metrics::Snapshot& snap) {
    if (prior_json.empty()) return;
    util::metrics::Snapshot prior;
    if (util::metrics::from_json(prior_json, prior))
        util::metrics::merge(snap, prior);
    else
        util::log_warn(
            "sweep: resumed manifest carries an unparsable metrics record; "
            "telemetry totals restart from this run");
}

void aggregate_and_write_csv(const std::vector<SweepCell>& cells,
                             const SweepSpec& spec,
                             const std::map<std::string, CellResult>& results,
                             SweepSummary& summary) {
    XS_TIMER_NS("sweep.phase.aggregate.ns");
    XS_TRACE_SPAN("aggregate");
    // Aggregate groups in expansion order; `repeat` is the innermost axis,
    // so one group's cells are contiguous. Failed (quarantined) cells never
    // contribute numbers: their groups stay incomplete and off the CSV.
    summary.rows.clear();
    summary.cells_failed = 0;
    summary.failed_cells.clear();
    for (std::size_t i = 0; i < cells.size();) {
        GroupRow row;
        row.cell = cells[i];
        row.repeats_total = spec.repeats;
        std::vector<const CellResult*> got;
        for (std::int64_t r = 0; r < spec.repeats; ++r, ++i) {
            const auto it = results.find(cells[i].id());
            if (it == results.end()) continue;
            if (it->second.failed()) {
                ++row.repeats_failed;
                ++summary.cells_failed;
                summary.failed_cells.push_back(cells[i].id());
                continue;
            }
            got.push_back(&it->second);
        }
        row.repeats_done = static_cast<std::int64_t>(got.size());
        if (!got.empty()) {
            double acc_sum = 0.0, nf_sum = 0.0;
            for (const CellResult* r : got) {
                acc_sum += r->accuracy;
                nf_sum += r->nf_mean;
                row.solver_failures += r->solver_failures;
            }
            const double n = static_cast<double>(got.size());
            row.acc_mean = acc_sum / n;
            row.nf_mean = nf_sum / n;
            double acc_var = 0.0, nf_var = 0.0;
            for (const CellResult* r : got) {
                acc_var += (r->accuracy - row.acc_mean) * (r->accuracy - row.acc_mean);
                nf_var += (r->nf_mean - row.nf_mean) * (r->nf_mean - row.nf_mean);
            }
            row.acc_std = std::sqrt(acc_var / n);
            row.nf_std = std::sqrt(nf_var / n);
            row.software_acc = got.front()->software_acc;
            row.energy_pj = got.front()->energy_pj;
            row.tiles = got.front()->tiles;
        }
        summary.rows.push_back(std::move(row));
    }

    // Aggregate CSV: complete groups only, fixed-precision cells, expansion
    // order — the bytes depend solely on the grid and the cell results,
    // never on the execution engine (threads, processes, kills, retries,
    // resumes).
    util::CsvWriter csv(summary.csv_path,
                        {"variant", "classes", "method", "sparsity",
                         "mitigation", "backend", "xbar_size", "sigma",
                         "parasitic_scale", "p_stuck_min", "p_stuck_max",
                         "repeats", "software_acc", "acc_mean", "acc_std",
                         "nf_mean", "nf_std", "energy_pj", "tiles",
                         "solver_failures"});
    for (const GroupRow& row : summary.rows) {
        if (!row.complete()) continue;
        const SweepCell& c = row.cell;
        csv.row(c.variant, c.num_classes, prune::method_name(c.prune.method),
                fmt_g(c.prune.sparsity), c.mitigation.name(),
                xbar::backend_name(c.backend), c.xbar_size,
                fmt_g(c.sigma), fmt_g(c.parasitic_scale), fmt_g(c.faults.p_stuck_min),
                fmt_g(c.faults.p_stuck_max), row.repeats_done,
                util::fmt(row.software_acc, 4), util::fmt(row.acc_mean, 4),
                util::fmt(row.acc_std, 4), util::fmt(row.nf_mean, 6),
                util::fmt(row.nf_std, 6), util::fmt(row.energy_pj, 3),
                row.tiles, row.solver_failures);
    }
    csv.flush();
    tensor::check(csv.ok(), "sweep: failed writing '" + summary.csv_path + "'");
    if (summary.cells_failed > 0)
        util::log_warn("sweep: " + std::to_string(summary.cells_failed) +
                       " quarantined cell(s) excluded from the aggregate CSV");
}

SweepRunner::SweepRunner(core::ExperimentContext& ctx, SweepSpec spec,
                         SweepOptions opts)
    : ctx_(ctx), spec_(std::move(spec)), opts_(std::move(opts)) {}

SweepSummary SweepRunner::run() {
    SweepCoordinator coord(ctx_, spec_, opts_);
    const std::vector<SweepCell>& cells = coord.cells();
    const std::vector<std::size_t>& pending = coord.pending();
    // Prepare every distinct model before the deal: training parallelizes
    // across the whole pool here, no part ever stalls on another part's
    // training, and a grid never retrains a shared model twice.
    coord.prepare_models();

    // Work units: a contiguous run of pending cells from the same repeat
    // group, executed as one run_sweep_group call. Repeat is the innermost
    // expansion axis, so group membership is index / repeats. Every lane is
    // bit-identical to a one-cell unit, which keeps the aggregate CSV
    // independent of how cells are grouped (supervisor workers run one-cell
    // units).
    struct Unit {
        std::size_t begin = 0;  // index into `pending`
        std::size_t count = 0;
    };
    std::vector<Unit> units;
    units.reserve(pending.size());
    for (std::size_t p = 0; p < pending.size();) {
        const std::size_t group =
            pending[p] / static_cast<std::size_t>(spec_.repeats);
        std::size_t q = p + 1;
        while (q < pending.size() &&
               pending[q] / static_cast<std::size_t>(spec_.repeats) == group)
            ++q;
        units.push_back(Unit{p, q - p});
        p = q;
    }

    // Deal phase: one part per pool worker; part p owns work units p, p+P,
    // p+2·P, … — an assignment that depends only on expansion order.
    // Exceptions are collected per part and rethrown after the dispatch (an
    // exception escaping into the pool would terminate the process).
    const std::size_t nparts = util::worker_count();
    std::vector<std::exception_ptr> errors(nparts);
    util::parallel_for_workers(
        0, nparts, [&](std::size_t, std::size_t lo, std::size_t hi) {
            for (std::size_t p = lo; p < hi; ++p) {
                try {
                    for (std::size_t u = p; u < units.size(); u += nparts) {
                        const Unit unit = units[u];
                        std::vector<const SweepCell*> group(unit.count);
                        for (std::size_t i = 0; i < unit.count; ++i)
                            group[i] = &cells[pending[unit.begin + i]];
                        const std::vector<CellResult> results =
                            run_sweep_group(ctx_, spec_, group);
                        for (std::size_t i = 0; i < unit.count; ++i)
                            coord.record(group[i]->id(), results[i]);
                        coord.maybe_progress();
                    }
                } catch (...) {
                    errors[p] = std::current_exception();
                }
            }
        });
    for (const auto& error : errors)
        if (error) std::rethrow_exception(error);
    return coord.finish();
}

std::string accuracy_vs_size_table(const SweepSummary& summary) {
    // Ordered unique sizes and size-independent row labels.
    std::vector<std::int64_t> sizes;
    std::vector<std::string> labels;
    std::map<std::string, std::map<std::int64_t, const GroupRow*>> grid;
    std::map<std::string, double> software;
    for (const GroupRow& row : summary.rows) {
        const SweepCell& c = row.cell;
        const std::string key = c.label(/*with_size=*/false,
                                        /*elide_defaults=*/true);
        if (grid.find(key) == grid.end()) labels.push_back(key);
        if (std::find(sizes.begin(), sizes.end(), c.xbar_size) == sizes.end())
            sizes.push_back(c.xbar_size);
        grid[key][c.xbar_size] = &row;
        if (row.complete()) software[key] = row.software_acc;
    }

    std::vector<std::string> header{"configuration", "software"};
    for (const auto size : sizes)
        header.push_back(std::to_string(size) + "x" + std::to_string(size));
    util::TextTable table(std::move(header));
    for (const std::string& label : labels) {
        std::vector<std::string> cells{label};
        const auto sw = software.find(label);
        cells.push_back(sw == software.end() ? "--"
                                             : util::fmt(sw->second) + "%");
        for (const auto size : sizes) {
            const auto it = grid[label].find(size);
            if (it == grid[label].end() || !it->second->complete()) {
                cells.push_back("--");
            } else {
                cells.push_back(util::fmt(it->second->acc_mean) + "±" +
                                util::fmt(it->second->acc_std) + "%");
            }
        }
        table.add_row(std::move(cells));
    }
    return table.str();
}

std::string dry_run_report(const core::ExperimentContext& ctx,
                           const SweepSpec& spec) {
    std::ostringstream os;
    const auto join = [&os](const char* name, const auto& values,
                            const auto& fmt_one) {
        os << "  " << name << " = ";
        bool first = true;
        for (const auto& v : values) {
            if (!first) os << ",";
            os << fmt_one(v);
            first = false;
        }
        os << "\n";
    };
    os << "dry run: " << spec.describe() << "\n";
    join("variants", spec.variants, [](const std::string& v) { return v; });
    join("classes", spec.class_counts,
         [](std::int64_t v) { return std::to_string(v); });
    join("prune", spec.prunes, [](const PruneSetting& p) {
        std::string s = prune::method_name(p.method);
        if (p.method != prune::Method::kNone) s += ":" + fmt_g(p.sparsity);
        return s;
    });
    join("mitigations", spec.mitigations,
         [](const Mitigation& m) { return m.name(); });
    join("sizes", spec.sizes, [](std::int64_t v) { return std::to_string(v); });
    join("sigmas", spec.sigmas, [](double v) { return fmt_g(v); });
    join("parasitic-scales", spec.parasitic_scales,
         [](double v) { return fmt_g(v); });
    join("faults", spec.faults, [](const FaultSetting& f) {
        return fmt_g(f.p_stuck_min) + ":" + fmt_g(f.p_stuck_max);
    });
    join("quant-levels", spec.quant_levels,
         [](std::int64_t v) { return std::to_string(v); });
    join("backends", spec.backends, [](xbar::BackendKind b) {
        return std::string(xbar::backend_name(b));
    });
    os << "  sweep-repeats = " << spec.repeats << "\n";
    if (spec.nf_only) os << "  nf-only = true\n";

    const std::vector<SweepCell> cells = spec.expand();
    os << "cells: " << cells.size() << " ("
       << (spec.repeats ? cells.size() / static_cast<std::size_t>(spec.repeats)
                        : 0)
       << " groups x " << spec.repeats << " repeats)\n";

    // Distinct models the runner's prepare phase would train or load, in
    // first-use order.
    const std::vector<core::ModelSpec> specs =
        distinct_model_specs(ctx, cells);
    os << "models to prepare: " << specs.size() << "\n";
    for (const core::ModelSpec& ms : specs) os << "  " << ms.key() << "\n";
    return os.str();
}

}  // namespace xs::sweep
