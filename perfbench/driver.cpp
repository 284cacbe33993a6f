// End-to-end sweep benchmark driver (see README.md).
//
//   perfbench_driver --workload=mc-circuit --seed=11 --seconds=15 --trace=0
//                    --state=.bench_build/perfbench --reference-dir=perfbench/reference
//   perfbench_driver --warmup --state=...      train the model zoo once
//
// Until --seconds have elapsed, a run repeats: set the workload up twice
// (ExperimentContext::dataset and ::prepared from a warm model cache), then
// execute one whole grid pass through sweep::SweepRunner::run or
// sweep::run_supervised. It checks every pass's aggregate CSV against the
// reference. At a seed whose results the reference cannot pin, an untimed
// pass at the reference seed first gates the run with the exact tolerances.
// It prints a metric table followed by one JSON line. --trace=1 alternates
// untraced and traced passes (util::metrics detail + util::trace armed) and
// reports the per-layer metrics instead. Exit status: 0 when every check
// passed, 1 when a fidelity or invariant check failed, 2 on a usage or
// set-up error (no JSON line is printed then).
#include "fidelity.h"
#include "ledger.h"
#include "workloads.h"

#include "core/experiments.h"
#include "sweep/runner.h"
#include "sweep/supervisor.h"
#include "util/flags.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;
using namespace perfbench;
namespace metrics = xs::util::metrics;

namespace {

// Set-ups before each pass; setup_s is the median over all of a run's
// set-ups. Host speed drifts over seconds, so set-ups spread through the run
// give a steadier median than the same number taken back to back.
constexpr int kSetupsPerPass = 2;

// Process start, and the end of the process's first set-up (the first
// ExperimentContext whose datasets and models are all ready).
const std::uint64_t g_start_ns = now_ns();
std::uint64_t g_first_setup_end_ns = 0;

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

double cpu_seconds(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double max_rss_mb(int who) {
    rusage ru{};
    ::getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

bool write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return static_cast<bool>(out);
}

// Flags every ExperimentContext and SweepSpec of a run is built from.
std::vector<std::string> run_flags(const Workload& w, std::uint64_t seed,
                                   const std::string& cache_dir, const std::string& out_dir) {
    std::vector<std::string> f = w.flags;
    f.push_back("--seed=" + std::to_string(seed));
    f.push_back("--cache-dir=" + cache_dir);
    f.push_back("--out-dir=" + out_dir);
    return f;
}

// ---- model zoo ------------------------------------------------------------

// Train every workload's models at the reference seed into `zoo`. Untimed;
// a run only ever loads from the zoo.
int warmup(const std::string& state) {
    const std::string zoo = state + "/zoo";
    const std::uint64_t t0 = now_ns();
    for (const Workload& w : workloads()) {
        FlagArgs args("perfbench_driver",
                      run_flags(w, kReferenceSeed, zoo, state + "/warmup-out"));
        const xs::util::Flags flags(args.argc(), args.argv());
        xs::core::ExperimentContext ctx(flags);
        const xs::sweep::SweepSpec spec = xs::sweep::parse_sweep_spec(flags);
        for (const xs::core::ModelSpec& ms : grid_model_specs(ctx, spec)) ctx.prepared(ms);
    }
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    std::printf("warm-up: model zoo ready in %.1f s\n", seconds);
    return write_file(zoo + "/warmup_s.txt", fmt(seconds) + "\n") ? 0 : 2;
}

// The zoo holds models trained at the reference seed. A run at another seed
// gets a cache directory in which each of its grid's model keys names the
// zoo's checkpoint for the same grid point, so the weights stay fixed while
// the seed moves the test images and every Monte-Carlo draw. Returns "" if
// the zoo lacks a model, so that a run never trains one.
std::string cache_for_seed(const Workload& w, std::uint64_t seed, const std::string& state) {
    const std::string zoo = state + "/zoo";
    const std::string dir =
        seed == kReferenceSeed ? zoo : state + "/alias/seed" + std::to_string(seed);
    fs::create_directories(dir);
    FlagArgs ref_args("perfbench_driver", run_flags(w, kReferenceSeed, zoo, dir));
    FlagArgs seed_args("perfbench_driver", run_flags(w, seed, dir, dir));
    const xs::util::Flags ref_flags(ref_args.argc(), ref_args.argv());
    const xs::util::Flags seed_flags(seed_args.argc(), seed_args.argv());
    const xs::core::ExperimentContext ref_ctx(ref_flags), seed_ctx(seed_flags);
    const xs::sweep::SweepSpec spec = xs::sweep::parse_sweep_spec(ref_flags);
    const auto ref_specs = grid_model_specs(ref_ctx, spec);
    const auto seed_specs = grid_model_specs(seed_ctx, spec);
    for (std::size_t i = 0; i < ref_specs.size(); ++i) {
        for (const char* ext : {".bin", ".meta"}) {
            const fs::path from = zoo + "/" + ref_specs[i].key() + ext;
            const fs::path to = dir + "/" + seed_specs[i].key() + ext;
            if (!fs::exists(from)) return "";
            std::error_code ec;
            if (!fs::exists(to)) fs::copy_file(from, to, ec);
            if (ec) return "";
        }
    }
    return dir;
}

// ---- one run ----------------------------------------------------------------

struct Pass {
    bool traced = false;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::int64_t cells = 0;
    std::int64_t failed = 0;
    FidelityReport fidelity;
    metrics::Snapshot snap;
    xs::sweep::SweepSummary summary;
    std::map<std::string, double> layer_self_s;  // traced passes only
};

class Run {
public:
    Run(const Workload& w, std::uint64_t seed, std::string out_dir, const std::string& cache_dir,
        std::string reference_csv, const FidelityTolerance& tol)
        : w_(w),
          out_dir_(std::move(out_dir)),
          reference_csv_(std::move(reference_csv)),
          tol_(tol),
          args_("perfbench_driver", run_flags(w, seed, cache_dir, out_dir_)),
          flags_(args_.argc(), args_.argv()),
          spec_(xs::sweep::parse_sweep_spec(flags_)) {
        fs::create_directories(out_dir_);
    }

    // Build the context from scratch kSetupsPerPass times; the last one
    // serves the next pass.
    bool setup() {
        for (int k = 0; k < kSetupsPerPass; ++k) {
            ctx_.reset();
            const std::uint64_t t0 = now_ns();
            ScopedSpan span(log_, "setup");
            ctx_ = std::make_unique<xs::core::ExperimentContext>(flags_);
            std::set<std::int64_t> classes(spec_.class_counts.begin(), spec_.class_counts.end());
            for (const std::int64_t c : classes) {
                ScopedSpan s(log_, "data.generate");
                ctx_->dataset(c);
            }
            for (const xs::core::ModelSpec& ms : grid_model_specs(*ctx_, spec_)) {
                ScopedSpan s(log_, "core.prepare");
                if (!ctx_->prepared(ms).from_cache) {
                    std::fprintf(stderr, "perfbench: model %s was not in the cache\n",
                                 ms.key().c_str());
                    return false;
                }
            }
            const std::uint64_t t1 = now_ns();
            if (g_first_setup_end_ns == 0) g_first_setup_end_ns = t1;
            setup_s_.push_back(static_cast<double>(t1 - t0) * 1e-9);
        }
        return true;
    }

    Pass pass(bool traced) {
        Pass p;
        p.traced = traced;
        xs::sweep::SweepOptions opts;
        const std::string trace_path = out_dir_ + "/trace.json";
        if (traced) {
            for (const auto& e : fs::directory_iterator(out_dir_))
                if (e.path().filename().string().rfind("trace.json", 0) == 0)
                    fs::remove(e.path());
        }
        metrics::reset();
        metrics::set_detail(traced);
        if (traced) xs::util::trace::start(trace_path);
        const double self0 = cpu_seconds(RUSAGE_SELF);
        const double child0 = cpu_seconds(RUSAGE_CHILDREN);
        const std::uint64_t t0 = now_ns();
        {
            ScopedSpan span(log_, traced ? "sweep.run.traced" : "sweep.run");
            if (w_.workers > 0) {
                xs::sweep::SupervisorOptions sup;
                sup.workers = w_.workers;
                sup.worker_cmd = {"/proc/self/exe"};
                sup.worker_cmd.insert(sup.worker_cmd.end(), args_.strings().begin() + 1,
                                      args_.strings().end());
                if (traced) sup.worker_cmd.push_back("--worker-trace=" + trace_path);
                p.summary = xs::sweep::run_supervised(*ctx_, spec_, opts, sup);
            } else {
                p.summary = xs::sweep::SweepRunner(*ctx_, spec_, opts).run();
            }
        }
        p.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
        p.cpu_s = cpu_seconds(RUSAGE_SELF) - self0 + cpu_seconds(RUSAGE_CHILDREN) - child0;
        if (traced) xs::util::trace::stop_and_write();
        metrics::set_detail(false);
        metrics::from_json(p.summary.metrics_json, p.snap);

        p.cells = p.summary.cells_total;
        CsvTable got, ref;
        if (!read_csv(p.summary.csv_path, got) || !read_csv(reference_csv_, ref)) {
            p.fidelity.problems.push_back("cannot read the aggregate or reference CSV");
            p.fidelity.cells_failed = p.cells;
        } else {
            p.fidelity = check_fidelity(got, ref, tol_);
        }
        if (counter(p.snap, "xbar.solve.unconverged") > 0)
            p.fidelity.problems.push_back("unconverged circuit solves");
        p.failed = std::min(p.cells, p.summary.cells_failed + p.summary.cells_pending +
                                         p.fidelity.cells_failed);
        // A failed check that names no group (a missing column, an extra
        // row, an unconverged solve) makes the whole pass suspect.
        if (!p.fidelity.ok() && p.failed == 0) p.failed = p.cells;
        if (traced) attribute_self_time(p);
        return p;
    }

    const std::vector<double>& setup_seconds() const { return setup_s_; }
    const SpanLog& log() const { return log_; }
    xs::core::ExperimentContext& ctx() { return *ctx_; }
    const xs::sweep::SweepSpec& spec() const { return spec_; }
    const xs::util::Flags& flags() const { return flags_; }
    const std::string& out_dir() const { return out_dir_; }

private:
    // Self time of the program's trace spans, per layer, from this pass's
    // trace file and (under the supervisor) every worker's.
    void attribute_self_time(Pass& p) {
        std::vector<TraceEvent> events;
        for (const auto& e : fs::directory_iterator(out_dir_)) {
            const std::string name = e.path().filename().string();
            if (name.rfind("trace.json", 0) == 0 && !read_chrome_trace(e.path().string(), events))
                p.fidelity.problems.push_back("unparseable trace " + name);
        }
        // Spans of no known layer count as unattributed.
        for (const auto& [name, self] : self_seconds_by_name(std::move(events))) {
            const std::string layer = layer_of_span(name);
            if (!layer.empty()) p.layer_self_s[layer] += self;
        }
        // GEMM time is measured inside the conv/linear steps: move it from
        // nn to tensor.
        const double gemm_s =
            hist_seconds(p.snap, "gemm.pack.ns") + hist_seconds(p.snap, "gemm.kernel.ns");
        p.layer_self_s["tensor"] = gemm_s;
        p.layer_self_s["nn"] -= gemm_s;
    }

    const Workload& w_;
    std::string out_dir_, reference_csv_;
    FidelityTolerance tol_;
    FlagArgs args_;
    xs::util::Flags flags_;
    xs::sweep::SweepSpec spec_;
    std::unique_ptr<xs::core::ExperimentContext> ctx_;
    std::vector<double> setup_s_;
    SpanLog log_;
};

double cells_per_s(const Pass& p) { return static_cast<double>(p.cells) / p.wall_s; }

template <typename F>
double median_of(const std::vector<const Pass*>& passes, F f) {
    std::vector<double> v;
    for (const Pass* p : passes) v.push_back(f(*p));
    return v.empty() ? 0.0 : median(v);
}

// GFLOP of dense-equivalent GEMM work one pass offers: every inference cell
// forwards the whole test split once.
double pass_gflop(Run& run) {
    if (run.spec().nf_only) return 0.0;
    const std::int64_t test_count = run.flags().get_int("test-count", 512);
    std::map<std::string, double> per_image;
    double flops = 0.0;
    for (const xs::sweep::SweepCell& c : run.spec().expand()) {
        auto it = per_image.find(c.variant);
        if (it == per_image.end()) {
            const xs::core::ModelSpec ms =
                run.ctx().spec(c.variant, c.num_classes, c.prune.method, c.prune.sparsity,
                               c.mitigation.wct);
            const double fpi =
                gemm_flops_per_image(run.ctx().prepared(ms).model, ms.vgg.input_size);
            it = per_image.emplace(c.variant, fpi).first;
        }
        flops += it->second * static_cast<double>(test_count);
    }
    return flops * 1e-9;
}

// `first` is the process's first pass: the only one that finds the fast
// backend's process-wide calibration cache cold, as every sweep_runner
// invocation does.
std::vector<Metric> per_layer_metrics(Run& run, const Pass& first,
                                      const std::vector<const Pass*>& traced,
                                      const std::vector<const Pass*>& untraced) {
    const auto h = [&](const char* name) {
        return median_of(traced, [&](const Pass& p) { return hist_seconds(p.snap, name); });
    };
    const auto c = [&](const char* name) {
        return median_of(traced, [&](const Pass& p) {
            return static_cast<double>(counter(p.snap, name));
        });
    };
    const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const auto self = [&](const char* layer) {
        return median_of(traced, [&](const Pass& p) {
            const auto it = p.layer_self_s.find(layer);
            return it == p.layer_self_s.end() ? 0.0 : it->second;
        });
    };

    const double run_s = median_of(traced, [](const Pass& p) { return p.wall_s; });
    const double threads = static_cast<double>(xs::util::worker_count());
    const double solves = c("xbar.solve.solves");
    // Counters run in every pass, traced or not.
    const double hits = static_cast<double>(counter(first.snap, "xbar.fast.calibration_hits"));
    const double builds =
        static_cast<double>(counter(first.snap, "xbar.fast.calibration_builds"));
    const double pack_s = h("gemm.pack.ns"), kernel_s = h("gemm.kernel.ns");
    const double gflop = pass_gflop(run);
    const double untraced_cps = median_of(untraced, cells_per_s);
    const double traced_cps = median_of(traced, cells_per_s);
    double attributed = 0.0;
    for (const char* layer : {"sweep", "core", "nn", "tensor", "xbar"}) attributed += self(layer);

    return {
        {"data.generate_s", median(run.log().durations("data.generate")), "s"},
        {"core.prepare_s", median(run.log().durations("core.prepare")), "s"},
        {"core.compile_s", h("sweep.phase.compile.ns"), "s"},
        {"core.infer_s", h("core.infer_repeat.ns"), "s"},
        {"core.measure_nf_s", h("core.measure_nf.ns"), "s"},
        {"xbar.solves", solves, "count"},
        {"xbar.sweeps", c("xbar.solve.sweeps"), "count"},
        {"xbar.sweeps_per_solve", ratio(c("xbar.solve.sweeps"), solves), "ratio"},
        {"xbar.unconverged", c("xbar.solve.unconverged"), "count"},
        {"xbar.tiles", c("xbar.circuit.tiles") + c("xbar.fast.tiles"), "count"},
        {"xbar.solve_s", h("xbar.solve.ns"), "s"},
        {"xbar.solve_us_per_solve", ratio(h("xbar.solve.ns") * 1e6, solves), "us"},
        {"xbar.tile_s", h("xbar.tile.ns"), "s"},
        {"xbar.stage.variation_s", h("xbar.stage.variation.ns"), "s"},
        {"xbar.stage.parasitics_s", h("xbar.stage.parasitics.ns"), "s"},
        {"xbar.fast.calibration_hit_ratio", ratio(hits, hits + builds), "ratio"},
        {"xbar.fast.calibration_builds", builds, "count"},
        {"nn.forward_s", h("nn.forward.ns"), "s"},
        {"nn.forwards", c("nn.forwards"), "count"},
        {"nn.compile_s", h("nn.compile.ns"), "s"},
        {"nn.step.conv_s", h("nn.step.conv.ns"), "s"},
        {"nn.step.linear_s", h("nn.step.linear.ns"), "s"},
        {"tensor.gemm.pack_s", pack_s, "s"},
        {"tensor.gemm.kernel_s", kernel_s, "s"},
        {"tensor.gemm.sparse_takes", c("gemm.sparse_takes"), "count"},
        {"tensor.gemm.sparse_packs", c("gemm.pack_a.sparse"), "count"},
        {"tensor.gemm.gflop", gflop, "GFLOP"},
        {"tensor.gemm.gflops", ratio(gflop, pack_s + kernel_s), "GFLOP/s"},
        {"sweep.run_s", run_s, "s"},
        {"sweep.cell_overhead_s", h("sweep.cell.ns") - h("sweep.phase.eval.ns"), "s"},
        {"sweep.phase.prepare_s", h("sweep.phase.prepare.ns"), "s"},
        {"sweep.useful_ratio",
         median_of(traced,
                   [](const Pass& p) {
                       const double done = static_cast<double>(p.summary.cells_executed);
                       return done / (done + static_cast<double>(p.summary.cell_retries));
                   }),
         "ratio"},
        {"sweep.worker_restarts",
         median_of(traced,
                   [](const Pass& p) { return static_cast<double>(p.summary.worker_restarts); }),
         "count"},
        {"self.sweep_s", self("sweep"), "s"},
        {"self.core_s", self("core"), "s"},
        {"self.nn_s", self("nn"), "s"},
        {"self.tensor_s", self("tensor"), "s"},
        {"self.xbar_s", self("xbar"), "s"},
        {"self.unattributed_s", run_s * threads - attributed, "s"},
        {"trace.threads", threads, "count"},
        {"trace.overhead_pct", ratio(untraced_cps - traced_cps, untraced_cps) * 100.0, "%"},
    };
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i ? ", " : "",
                    metrics[i].name.c_str(), fmt(metrics[i].value).c_str(),
                    metrics[i].unit.c_str());
    std::printf("}}\n");
}

int worker(const xs::util::Flags& flags) {
    xs::core::ExperimentContext ctx(flags);
    const xs::sweep::SweepSpec spec = xs::sweep::parse_sweep_spec(flags);
    const std::string trace_path = flags.get_string("worker-trace", "");
    if (!trace_path.empty()) {
        metrics::set_detail(true);
        xs::util::trace::start(trace_path + ".w" + std::to_string(::getpid()));
    }
    const int rc = xs::sweep::worker_main(ctx, spec,
                                          static_cast<int>(flags.get_int("wire-in", -1)),
                                          static_cast<int>(flags.get_int("wire-out", -1)));
    xs::util::trace::stop_and_write();
    return rc;
}

int driver_main(int argc, char** argv) {
    const xs::util::Flags flags(argc, argv);
    xs::util::set_log_level(xs::util::LogLevel::kWarn);
    if (flags.get_bool("worker", false)) return worker(flags);

    const std::string state = flags.get_string("state", ".bench_build/perfbench");
    if (flags.get_bool("warmup", false)) return warmup(state);

    const Workload* w = find_workload(flags.get_string("workload", ""));
    if (w == nullptr) {
        std::fprintf(stderr, "perfbench: unknown --workload; one of:");
        for (const Workload& k : workloads()) std::fprintf(stderr, " %s", k.name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }
    const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", kReferenceSeed));
    const double seconds = flags.get_double("seconds", 10.0);
    const bool traced = flags.get_int("trace", 0) != 0;
    const std::string reference_csv =
        flags.get_string("reference-dir", "perfbench/reference") + "/" + w->name + ".csv";

    const std::string cache_dir = cache_for_seed(*w, seed, state);
    if (cache_dir.empty()) {
        std::fprintf(stderr, "perfbench: model zoo under %s/zoo is incomplete; run --warmup\n",
                     state.c_str());
        return 2;
    }
    if (!fs::exists(reference_csv)) {
        std::fprintf(stderr, "perfbench: no reference %s\n", reference_csv.c_str());
        return 2;
    }

    // Away from the reference seed the timed passes are held only to
    // statistical bands. One untimed pass at the reference seed, held to
    // the exact tolerances, gates the run as strictly as a reference-seed run.
    std::optional<Pass> check;
    if (seed != kReferenceSeed && w->tol_other_seed) {
        Run ref(*w, kReferenceSeed, state + "/runs/" + w->name + "-check", state + "/zoo",
                reference_csv, w->tol_reference);
        if (!ref.setup()) return 2;
        check = ref.pass(false);
    }
    const FidelityTolerance& tol =
        seed == kReferenceSeed || !w->tol_other_seed ? w->tol_reference : *w->tol_other_seed;
    Run run(*w, seed, state + "/runs/" + w->name, cache_dir, reference_csv, tol);

    // Set-ups and whole passes until --seconds have elapsed; a traced run
    // alternates untraced and traced passes so both see the same machine
    // state.
    std::vector<Pass> passes;
    const std::uint64_t t0 = now_ns();
    const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
    while (passes.size() < (traced ? 2u : 1u) || elapsed() < seconds) {
        if (!run.setup()) return 2;
        passes.push_back(run.pass(traced && passes.size() % 2 == 1));
    }

    std::vector<const Pass*> all, plain, with_trace;
    if (check) all.push_back(&*check);
    for (const Pass& p : passes) {
        all.push_back(&p);
        (p.traced ? with_trace : plain).push_back(&p);
    }
    std::int64_t attempted = 0, failed = 0;
    bool correct = true;
    for (const Pass* p : all) {
        attempted += p->cells;
        failed += p->failed;
        if (!p->fidelity.ok() || p->failed > 0) correct = false;
        for (const std::string& problem : p->fidelity.problems)
            std::printf("FIDELITY %s%s\n", check && p == &*check ? "(reference seed) " : "",
                        problem.c_str());
    }
    // Deviations from the reference, over the passes held to the exact
    // tolerances.
    double acc_err = 0.0, nf_err = 0.0;
    for (const Pass* p : check ? std::vector<const Pass*>{&*check} : all) {
        acc_err = std::max(acc_err, p->fidelity.acc_err_pp);
        nf_err = std::max(nf_err, p->fidelity.nf_err_rel);
    }
    const Pass& first = check ? *check : passes.front();
    write_file(run.out_dir() + "/spans.json", run.log().to_json());

    std::vector<Metric> metrics;
    if (traced) {
        metrics = per_layer_metrics(run, first, with_trace, plain);
    } else {
        const double peak = std::max(max_rss_mb(RUSAGE_SELF), max_rss_mb(RUSAGE_CHILDREN));
        metrics = {
            {"cells_per_s", median_of(plain, cells_per_s), "1/s"},
            {"setup_s", median(run.setup_seconds()), "s"},
            {"cpu_ms_per_cell",
             median_of(plain, [](const Pass& p) {
                 return p.cpu_s * 1e3 / static_cast<double>(p.cells);
             }),
             "ms"},
            {"peak_rss_mb", peak, "MB"},
        };
    }

    const std::string warm = read_file(state + "/zoo/warmup_s.txt");
    std::printf("workload %s  seed %llu  passes %zu (%zu traced)%s  cells attempted %lld  "
                "failed %lld\n",
                w->name.c_str(), static_cast<unsigned long long>(seed), passes.size(),
                with_trace.size(), check ? " + 1 at the reference seed" : "",
                static_cast<long long>(attempted), static_cast<long long>(failed));
    std::printf("  pass wall s:");
    if (check) std::printf(" %.3fR", check->wall_s);
    for (const Pass& p : passes) std::printf(" %.3f%s", p.wall_s, p.traced ? "T" : "");
    std::printf("\n  %-34s %16s %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics)
        std::printf("  %-34s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(), m.unit.c_str());
    std::printf("  %-34s %16s %s\n", "acc_err_pp", fmt(acc_err).c_str(), "pp");
    std::printf("  %-34s %16s %s\n", "nf_err_rel", fmt(nf_err).c_str(), "ratio");
    std::printf("  %-34s %16s %s\n", "first_setup_s (not gated)",
                fmt(static_cast<double>(g_first_setup_end_ns - g_start_ns) * 1e-9).c_str(), "s");
    std::printf("  %-34s %16s %s\n", "first_pass_cells_per_s (not gated)",
                fmt(cells_per_s(first)).c_str(), "1/s");
    if (!warm.empty())
        std::printf("  %-34s %16s %s\n", "warmup_s (once, not gated)",
                    fmt(std::stod(warm)).c_str(), "s");
    print_result(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return driver_main(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
