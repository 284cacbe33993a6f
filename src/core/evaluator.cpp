#include "core/evaluator.h"

#include "map/compaction.h"
#include "map/matrix_view.h"
#include "map/tiling.h"
#include "nn/infer.h"
#include "tensor/ops.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"
#include "xbar/mapper.h"
#include "xbar/pipeline.h"

#include <algorithm>
#include <cstring>

namespace xs::core {

using tensor::Tensor;

namespace {

map::Tiling make_tiling(const Tensor& work, prune::Method method,
                        std::int64_t xbar_size) {
    switch (method) {
        case prune::Method::kXbarColumn:
            return map::tile_xcs(work, xbar_size);
        case prune::Method::kXbarRow:
            return map::tile_xrs(work, xbar_size);
        case prune::Method::kNone:
        case prune::Method::kChannelFilter:
        default:
            return map::tile_dense(work.dim(0), work.dim(1), xbar_size);
    }
}

// The deterministic mapping stages for one MAC matrix: T-compaction, the R
// column rearrangement, and the tiling, all computed once so Monte-Carlo
// repeats only redo the stochastic stages (variation / faults / solve).
// `work` is only materialized when T or R actually transforms the matrix;
// otherwise the caller's original matrix is the mapping target (avoiding a
// second resident copy of every layer's weights).
struct MatrixPlan {
    bool use_compaction = false;
    bool rearranged = false;
    bool transformed = false;
    map::Compaction compaction;
    Rearrangement rearrangement;
    Tensor work;  // post-T/R mapping target (empty when !transformed)
    map::Tiling tiling;

    const Tensor& mapping_target(const Tensor& matrix) const {
        return transformed ? work : matrix;
    }

    // R⁻¹ then T⁻¹: a degraded mapping target back in the matrix's layout.
    Tensor unmap(Tensor degraded) const {
        if (rearranged) degraded = invert_columns(degraded, rearrangement);
        if (use_compaction) degraded = map::uncompact(compaction, degraded);
        return degraded;
    }
};

MatrixPlan build_matrix_plan(const Tensor& matrix, const EvalConfig& config) {
    tensor::check(matrix.rank() == 2, "degrade_mac_matrix: expects rank-2 matrix");
    MatrixPlan plan;
    // T: C/F-pruned matrices are compacted (zero rows/columns eliminated).
    plan.use_compaction = config.method == prune::Method::kChannelFilter;
    if (plan.use_compaction) {
        plan.compaction = map::compact_dense(matrix);
        // uncompact() only needs the index lists, so the compacted weights
        // move into `work` rather than living twice in the cached plan.
        plan.work = std::move(plan.compaction.matrix);
        plan.transformed = true;
    }
    // Mitigation R on the compacted matrix.
    if (config.rearrange) {
        const Tensor& base = plan.mapping_target(matrix);
        plan.rearrangement = compute_rearrangement(base, config.order);
        plan.work = apply_columns(base, plan.rearrangement);
        plan.rearranged = plan.transformed = true;
    }
    plan.tiling =
        make_tiling(plan.mapping_target(matrix), config.method, config.xbar.size);
    return plan;
}

// The non-ideality stage list for `config` (xbar/pipeline.h). Built once
// per top-level degrade call chain and shared across layers and repeats —
// the fast backend's calibration cache amortizes over the whole run.
xbar::TilePipeline build_pipeline(const EvalConfig& config) {
    xbar::PipelineSpec spec;
    spec.xbar = config.xbar;
    spec.conductance_levels = config.conductance_levels;
    spec.include_variation = config.include_variation;
    spec.faults = config.faults;
    spec.include_parasitics = config.include_parasitics;
    spec.compensate_columns = config.compensate_columns;
    spec.backend = config.backend;
    spec.fast_buckets = config.fast_buckets;
    return xbar::build_tile_pipeline(spec);
}

// One mappable layer's cached mapping state, reused across repeats.
struct LayerPlan {
    nn::Layer* layer = nullptr;
    Tensor matrix;  // original weights (restoration copy)
    double w_ref = 0.0;
    MatrixPlan plan;
};

// Layers are dealt over the pool (util::parallel_deal): each plan is
// independent, and each is built by one worker in full.
std::vector<LayerPlan> build_layer_plans(nn::Sequential& model,
                                         const EvalConfig& config) {
    const std::vector<nn::Layer*> layers = map::mappable_layers(model);
    std::vector<LayerPlan> plans(layers.size());
    util::parallel_deal(layers.size(), [&](std::size_t, std::size_t li) {
        LayerPlan& lp = plans[li];
        lp.layer = layers[li];
        lp.matrix = map::extract_matrix(*lp.layer);

        const auto it = config.w_ref.find(lp.layer->name());
        if (it != config.w_ref.end()) {
            lp.w_ref = it->second;
        } else {
            lp.w_ref =
                tensor::abs_percentile_nonzero(lp.matrix, config.w_ref_percentile);
        }
        if (lp.w_ref <= 0.0) lp.w_ref = 1.0;  // degenerate all-zero layer

        lp.plan = build_matrix_plan(lp.matrix, config);
    });
    return plans;
}

LayerEvalStats layer_stats_of(const LayerPlan& lp, const DegradeStats& stats) {
    LayerEvalStats ls;
    ls.layer = lp.layer->name();
    if (lp.plan.use_compaction) {
        ls.rows = static_cast<std::int64_t>(lp.plan.compaction.rows.size());
        ls.cols = static_cast<std::int64_t>(lp.plan.compaction.cols.size());
    } else {
        ls.rows = lp.matrix.dim(0);
        ls.cols = lp.matrix.dim(1);
    }
    ls.tiles = stats.tiles;
    ls.unconverged = stats.unconverged;
    ls.nf_mean = stats.nf_mean();
    ls.w_ref = lp.w_ref;
    return ls;
}

// Solver-failure accounting invariant, checked loudly on every aggregate
// result: unconverged_tiles sums solver failures over ALL Monte-Carlo
// repeats while total_tiles counts one repeat's mapping, so the bound is
// total_tiles × repeats (evaluator.h). A violation means a repeat path
// double-counted or dropped tiles — fail immediately instead of letting a
// sweep CSV silently report corrupt failure rates.
void check_failure_accounting(const EvalResult& r, std::int64_t repeats) {
    tensor::check(
        r.unconverged_tiles >= 0 &&
            r.unconverged_tiles <= r.total_tiles * repeats,
        "evaluate_on_crossbars: solver-failure accounting broken: "
        "unconverged_tiles = " + std::to_string(r.unconverged_tiles) +
            " outside [0, total_tiles × repeats = " +
            std::to_string(r.total_tiles) + " × " + std::to_string(repeats) +
            "]");
}

void finalize_nf(EvalResult& result) {
    double nf_sum = 0.0;
    std::int64_t nf_tiles = 0;
    for (const auto& ls : result.layers) {
        nf_sum += ls.nf_mean * static_cast<double>(ls.tiles);
        nf_tiles += ls.tiles;
        result.total_tiles += ls.tiles;
        result.unconverged_tiles += ls.unconverged;
    }
    result.nf_mean = nf_tiles ? nf_sum / static_cast<double>(nf_tiles) : 0.0;
}

// ---- the tile loop (DESIGN.md §12) ----
// One lane per Monte-Carlo repeat; a single degrade is one lane. The tiles of
// every layer in a call form one list, dealt to the pool one tile at a time
// (util::parallel_deal), so a layer with fewer tiles than workers does not
// leave workers idle. Each tile's deterministic prep (extract, differential
// split into lane 0) runs once and is copied to the other lanes, the
// stochastic stages run per lane with private RNG streams, and the parasitic
// stage solves the lanes' circuits together (xbar/solver.h). Lane scratch
// persists across tiles and layers, so the steady state allocates nothing.
struct BatchLane {
    Tensor g_pos, g_neg, tile_w;
    xbar::TileStageContext ctx;
};

struct BatchWorker {
    Tensor sub;                                     // extracted tile
    std::vector<BatchLane> lanes;                   // one per repeat
    std::vector<xbar::TileStageContext*> ctx_ptrs;  // lane ctx view
    // The worker's one circuit-solver workspace (other backends keep their
    // per-lane scratch in ctx.ws).
    xbar::DegradeWorkspace ws;
};

// One layer's share of a tile deal: its mapping state, and per lane its RNG
// stream, its stats and (unless the caller only needs NF) its W′.
struct LayerJob {
    const MatrixPlan* plan = nullptr;
    const Tensor* matrix = nullptr;
    double w_ref = 0.0;
    const util::Rng* rngs = nullptr;  // [lane]
    DegradeStats* stats = nullptr;    // [lane]
    Tensor* out = nullptr;            // [lane] mapping-layout W′; null = NF only
};

// Everything the tile loop reuses across calls: the stage list (built once,
// so the fast backend's calibration cache amortizes over the whole run), one
// BatchWorker per pool slot, and the per-(tile, lane) RNG / result slots of
// the current deal.
struct TileLoop {
    TileLoop(const EvalConfig& config, std::size_t max_lanes)
        : config(config),
          pipeline(build_pipeline(config)),
          workers(util::worker_count()) {
        for (BatchWorker& bw : workers) {
            bw.lanes.resize(max_lanes);
            for (BatchLane& lane : bw.lanes) bw.ctx_ptrs.push_back(&lane.ctx);
        }
    }

    const EvalConfig& config;
    const xbar::TilePipeline pipeline;
    std::vector<BatchWorker> workers;
    // The current deal: its jobs, lane count, and first[j] = job j's first
    // index in the deal's tile list (first.back() = the total).
    const LayerJob* jobs = nullptr;
    std::size_t nl = 0;
    std::vector<std::size_t> first;
    std::vector<util::Rng> tile_rngs;  // tile-major: [g·nl + rl]
    std::vector<double> tile_nf;
    std::vector<std::uint8_t> tile_ok;
};

// Degrade tile g of the current deal in every lane, on pool slot `w`.
void degrade_tile(void* ctx, std::size_t w, std::size_t g) {
    TileLoop& loop = *static_cast<TileLoop*>(ctx);
    const std::size_t j = static_cast<std::size_t>(
        std::upper_bound(loop.first.begin() + 1, loop.first.end(), g) -
        (loop.first.begin() + 1));
    const LayerJob& job = loop.jobs[j];
    const map::Tile& tile = job.plan->tiling.tiles[g - loop.first[j]];
    const std::int64_t n = loop.config.xbar.size;
    const std::size_t nl = loop.nl;
    const xbar::ConductanceMapper mapper(loop.config.xbar.device, job.w_ref);
    BatchWorker& bw = loop.workers[w];

    map::extract_tile_into(job.plan->mapping_target(*job.matrix), tile, n,
                           bw.sub);
    BatchLane& first = bw.lanes[0];
    mapper.to_differential(bw.sub, first.g_pos, first.g_neg);
    const std::size_t bytes = static_cast<std::size_t>(n * n) * sizeof(float);
    for (std::size_t rl = 1; rl < nl; ++rl) {
        BatchLane& lane = bw.lanes[rl];
        lane.g_pos.reset(n, n);
        lane.g_neg.reset(n, n);
        std::memcpy(lane.g_pos.data(), first.g_pos.data(), bytes);
        std::memcpy(lane.g_neg.data(), first.g_neg.data(), bytes);
    }
    for (std::size_t rl = 0; rl < nl; ++rl) {
        BatchLane& lane = bw.lanes[rl];
        lane.ctx.begin_tile(lane.g_pos, lane.g_neg, loop.tile_rngs[g * nl + rl]);
    }
    loop.pipeline.run_batch(bw.ctx_ptrs.data(), static_cast<int>(nl), bw.ws);
    for (std::size_t rl = 0; rl < nl; ++rl) {
        BatchLane& lane = bw.lanes[rl];
        loop.tile_nf[g * nl + rl] = lane.ctx.nf;
        loop.tile_ok[g * nl + rl] = lane.ctx.converged;
        if (!job.out) continue;
        mapper.from_differential_into(*lane.ctx.pos, *lane.ctx.neg, lane.tile_w);
        // Tiles partition the matrix: write-disjoint.
        map::scatter_tile(job.out[rl], tile, lane.tile_w);
    }
}

// Degrade the mapping targets of `njobs` layers for `nl` repeat lanes in one
// tile deal (tile→G→G′→W′; plan.unmap() then applies R⁻¹ and T⁻¹). Lane rl
// of job j draws tile t's stochastic stages from jobs[j].rngs[rl].split(t + 1)
// — independent of which worker runs the tile — and each job's stats fold
// its tiles in tile order, so results do not depend on the deal.
void degrade_layers(TileLoop& loop, const LayerJob* jobs, std::size_t njobs,
                    std::size_t nl) {
    loop.jobs = jobs;
    loop.nl = nl;
    loop.first.assign(1, 0);
    for (std::size_t j = 0; j < njobs; ++j)
        loop.first.push_back(loop.first.back() + jobs[j].plan->tiling.tiles.size());
    const std::size_t total = loop.first.back();

    loop.tile_rngs.clear();
    loop.tile_rngs.reserve(total * nl);
    for (std::size_t j = 0; j < njobs; ++j)
        for (std::size_t t = 0; t < loop.first[j + 1] - loop.first[j]; ++t)
            for (std::size_t rl = 0; rl < nl; ++rl)
                loop.tile_rngs.push_back(
                    jobs[j].rngs[rl].split(static_cast<std::uint64_t>(t) + 1));
    loop.tile_nf.assign(total * nl, 0.0);
    loop.tile_ok.assign(total * nl, 1);
    // Scatter targets: tiles cover disjoint entries.
    for (std::size_t j = 0; j < njobs; ++j)
        if (jobs[j].out)
            for (std::size_t rl = 0; rl < nl; ++rl)
                jobs[j].out[rl] = jobs[j].plan->mapping_target(*jobs[j].matrix);

    util::parallel_deal(total, &degrade_tile, &loop);

    for (std::size_t j = 0; j < njobs; ++j) {
        for (std::size_t rl = 0; rl < nl; ++rl) {
            DegradeStats& ds = jobs[j].stats[rl];
            for (std::size_t g = loop.first[j]; g < loop.first[j + 1]; ++g) {
                ds.nf_sum += loop.tile_nf[g * nl + rl];
                ++ds.nf_tiles;
                if (!loop.tile_ok[g * nl + rl]) ++ds.unconverged;
            }
            ds.tiles += jobs[j].plan->tiling.count();
        }
    }
}

// Degrade every layer of `plans` at config.seed in one tile deal, layer li
// drawing from Rng(config.seed).split(li + 1). Writes layer li's
// mapping-layout W′ to out[li] unless `out` is null (NF only).
std::vector<DegradeStats> degrade_all_layers(const std::vector<LayerPlan>& plans,
                                             const EvalConfig& config,
                                             Tensor* out) {
    const util::Rng rng(config.seed);
    std::vector<util::Rng> layer_rngs;
    std::vector<DegradeStats> stats(plans.size());
    std::vector<LayerJob> jobs(plans.size());
    layer_rngs.reserve(plans.size());
    for (std::size_t li = 0; li < plans.size(); ++li) {
        layer_rngs.push_back(rng.split(static_cast<std::uint64_t>(li) + 1));
        jobs[li] = LayerJob{&plans[li].plan, &plans[li].matrix, plans[li].w_ref,
                            &layer_rngs[li], &stats[li],
                            out ? &out[li] : nullptr};
    }
    TileLoop loop(config, 1);
    degrade_layers(loop, jobs.data(), jobs.size(), 1);
    return stats;
}

}  // namespace

Tensor degrade_mac_matrix(const Tensor& matrix, const EvalConfig& config,
                          double w_ref, util::Rng& rng, DegradeStats& stats) {
    tensor::check(w_ref > 0.0, "degrade_mac_matrix: w_ref must be positive");
    const MatrixPlan plan = build_matrix_plan(matrix, config);
    TileLoop loop(config, 1);
    Tensor degraded;
    const LayerJob job{&plan, &matrix, w_ref, &rng, &stats, &degraded};
    degrade_layers(loop, &job, 1, 1);
    return plan.unmap(std::move(degraded));
}

std::map<std::string, Tensor> degrade_model_matrices(
    nn::Sequential& model, const EvalConfig& config,
    std::vector<LayerEvalStats>* layer_stats) {
    XS_TIMER_NS("core.degrade_repeat.ns");
    XS_TRACE_SPAN("degrade_repeat");
    const std::vector<LayerPlan> plans = build_layer_plans(model, config);
    std::vector<Tensor> degraded(plans.size());
    const std::vector<DegradeStats> stats =
        degrade_all_layers(plans, config, degraded.data());
    std::map<std::string, Tensor> result;
    for (std::size_t li = 0; li < plans.size(); ++li) {
        const LayerPlan& lp = plans[li];
        if (layer_stats) layer_stats->push_back(layer_stats_of(lp, stats[li]));
        result.emplace(lp.layer->name(), lp.plan.unmap(std::move(degraded[li])));
    }
    return result;
}

std::vector<EvalResult> evaluate_repeats_on_crossbars(
    nn::Sequential& model, const nn::Dataset& test, const EvalConfig& config,
    const std::vector<std::uint64_t>& seeds) {
    const std::size_t R = seeds.size();
    tensor::check(R > 0, "evaluate_repeats_on_crossbars: empty seed list");
    const std::vector<LayerPlan> plans = build_layer_plans(model, config);
    nn::InferenceEngine engine(model);
    tensor::check(engine.mappable_count() == plans.size(),
                  "evaluate_repeats_on_crossbars: engine/plan mappable-layer "
                  "mismatch");

    // Repeats ride in groups of half the solver's lane budget, so the
    // parasitic stage fuses each group's pos+neg solves into one full-width
    // batched solve (2·kGroupLanes = kMaxSolveLanes), and each group rides
    // one batched forward pass.
    const std::size_t kGroupLanes =
        static_cast<std::size_t>(xbar::kMaxSolveLanes) / 2;
    const std::size_t n_groups = (R + kGroupLanes - 1) / kGroupLanes;

    std::vector<nn::CompiledInstance> instances(R);
    std::vector<std::vector<DegradeStats>> stats(  // [layer][repeat]
        plans.size(), std::vector<DegradeStats>(R));
    TileLoop loop(config, kGroupLanes);
    std::vector<util::Rng> layer_rngs(kGroupLanes);

    // Degrade + fold + pack repeats [g·kGroupLanes, …) into their compiled
    // instances. Groups run strictly one at a time on this thread, so all
    // the scratch above is shared; only the instances and stats slots
    // written are group-disjoint. Recorded under the sweep phase namespace:
    // per-cell phase metrics then split into prepare / compile / eval
    // without the sweep layer having to reach inside the evaluator (this is
    // a no-op label outside sweeps).
    const auto compile_group = [&](std::size_t g) {
        XS_TIMER_NS("sweep.phase.compile.ns");
        XS_TRACE_SPAN("compile_instances");
        const std::size_t lane0 = g * kGroupLanes;
        const std::size_t nl = std::min(kGroupLanes, R - lane0);
        for (std::size_t li = 0; li < plans.size(); ++li) {
            const LayerPlan& lp = plans[li];
            // Per-repeat layer streams, exactly degrade_model_matrices'
            // Rng(seed).split(layer_tag) chain (split is non-mutating, so
            // the chain is position-independent).
            for (std::size_t rl = 0; rl < nl; ++rl)
                layer_rngs[rl] = util::Rng(seeds[lane0 + rl])
                                     .split(static_cast<std::uint64_t>(li) + 1);
            // One layer per deal, so only one layer's lane W′s are live.
            std::vector<Tensor> lane_work(nl);  // per-lane W′
            const LayerJob job{&lp.plan, &lp.matrix, lp.w_ref,
                               layer_rngs.data(), &stats[li][lane0],
                               lane_work.data()};
            degrade_layers(loop, &job, 1, nl);
            // Unmap and fold straight into the packed instances one lane at
            // a time, so one full-size W′ is live at once.
            for (std::size_t rl = 0; rl < nl; ++rl) {
                const Tensor w = lp.plan.unmap(std::move(lane_work[rl]));
                engine.compile_instance_slot(li, &w, instances[lane0 + rl]);
            }
        }
    };

    std::vector<const nn::CompiledInstance*> inst_ptrs(R);
    for (std::size_t r = 0; r < R; ++r) inst_ptrs[r] = &instances[r];
    std::vector<std::int64_t> correct(R, 0);
    const std::int64_t total = test.size();

    // Run group g's repeats through one batched forward pass per dataset
    // slice.
    const auto infer_group = [&](std::size_t g) {
        XS_TIMER_NS("core.infer_repeat.ns");
        XS_TRACE_SPAN("infer_repeat");
        const std::size_t lane0 = g * kGroupLanes;
        const std::size_t nl = std::min(kGroupLanes, R - lane0);
        // Identity-order evaluation over contiguous dataset slices, exactly
        // nn::evaluate's batching, with the group riding one forward pass.
        const std::int64_t batch_size = 64;
        tensor::Shape batch_shape = test.images.shape();
        const std::int64_t item = total > 0 ? test.images.numel() / total : 0;
        for (std::int64_t start = 0; start < total; start += batch_size) {
            const std::int64_t count = std::min(batch_size, total - start);
            batch_shape[0] = count;
            const Tensor& logits = engine.forward_batched(
                test.images.data() + start * item, batch_shape,
                inst_ptrs.data() + lane0, nl);
            for (std::size_t rl = 0; rl < nl; ++rl)
                for (std::int64_t i = 0; i < count; ++i)
                    if (tensor::argmax_row(
                            logits,
                            static_cast<std::int64_t>(rl) * count + i) ==
                        test.labels[static_cast<std::size_t>(start + i)])
                        ++correct[lane0 + rl];
        }
    };

    // Compile then infer one group at a time; the tile loop and the
    // forward pass each spread their own work over the pool.
    for (std::size_t g = 0; g < n_groups; ++g) {
        compile_group(g);
        infer_group(g);
    }

    std::vector<EvalResult> out(R);
    for (std::size_t r = 0; r < R; ++r) {
        for (std::size_t li = 0; li < plans.size(); ++li)
            out[r].layers.push_back(layer_stats_of(plans[li], stats[li][r]));
        out[r].accuracy = total ? 100.0 * static_cast<double>(correct[r]) /
                                      static_cast<double>(total)
                                : 0.0;
        finalize_nf(out[r]);
    }
    return out;
}

EvalResult evaluate_on_crossbars(nn::Sequential& model, const nn::Dataset& test,
                                 const EvalConfig& config) {
    const std::int64_t repeats = std::max<std::int64_t>(config.repeats, 1);
    std::vector<std::uint64_t> seeds(static_cast<std::size_t>(repeats));
    for (std::int64_t r = 0; r < repeats; ++r)
        seeds[static_cast<std::size_t>(r)] =
            config.seed + static_cast<std::uint64_t>(r) * 7919;
    std::vector<EvalResult> per =
        evaluate_repeats_on_crossbars(model, test, config, seeds);
    EvalResult aggregate = std::move(per[0]);
    for (std::int64_t r = 1; r < repeats; ++r) {
        const EvalResult& one = per[static_cast<std::size_t>(r)];
        aggregate.accuracy += one.accuracy;
        aggregate.nf_mean += one.nf_mean;
        aggregate.unconverged_tiles += one.unconverged_tiles;
    }
    aggregate.accuracy /= static_cast<double>(repeats);
    aggregate.nf_mean /= static_cast<double>(repeats);
    check_failure_accounting(aggregate, repeats);
    return aggregate;
}

EvalResult measure_nf(nn::Sequential& model, const EvalConfig& config) {
    XS_TIMER_NS("core.measure_nf.ns");
    XS_TRACE_SPAN("measure_nf");
    // Every layer's tiles in one deal, and no W′: NF is all it reports.
    const std::vector<LayerPlan> plans = build_layer_plans(model, config);
    const std::vector<DegradeStats> stats =
        degrade_all_layers(plans, config, nullptr);
    EvalResult result;
    for (std::size_t li = 0; li < plans.size(); ++li)
        result.layers.push_back(layer_stats_of(plans[li], stats[li]));
    finalize_nf(result);
    return result;
}

}  // namespace xs::core
