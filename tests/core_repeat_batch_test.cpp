// Equivalence pin for the lane-batched repeat evaluator (DESIGN.md §12):
// with cold-start solves, evaluate_on_crossbars must be bit-identical to a
// reference repeat loop built from the public API — per repeat,
// degrade_model_matrices → InferenceEngine::refresh → nn::evaluate — for
// any repeat count and backend. This is what lets sweeps group a grid
// point's repeats without changing a single CSV byte.
#include "core/evaluator.h"
#include "map/matrix_view.h"
#include "nn/infer.h"
#include "nn/trainer.h"
#include "nn/vgg.h"
#include "tensor/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

namespace xs::core {
namespace {

using tensor::Tensor;

::testing::AssertionResult bits_eq(double a, double b, const char* what) {
    std::uint64_t ba = 0, bb = 0;
    std::memcpy(&ba, &a, sizeof(a));
    std::memcpy(&bb, &b, sizeof(b));
    if (ba == bb) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": " << a << " vs " << b << " (bits differ)";
}

nn::Sequential tiny_vgg(std::uint64_t seed) {
    nn::VggConfig vc;
    vc.width = 0.0625;
    util::Rng rng(seed);
    return nn::build_vgg(vc, rng);
}

nn::Dataset tiny_dataset(std::uint64_t seed) {
    nn::Dataset test;
    test.num_classes = 10;
    test.images = Tensor({16, 3, 32, 32});
    util::Rng rng(seed);
    tensor::fill_normal(test.images, rng, 0.0f, 1.0f);
    test.labels.resize(16);
    for (std::size_t i = 0; i < 16; ++i)
        test.labels[i] = static_cast<std::int64_t>(i % 10);
    return test;
}

void expect_identical(const EvalResult& a, const EvalResult& b,
                      const std::string& tag) {
    SCOPED_TRACE(tag);
    EXPECT_TRUE(bits_eq(a.accuracy, b.accuracy, "accuracy"));
    EXPECT_TRUE(bits_eq(a.nf_mean, b.nf_mean, "nf_mean"));
    EXPECT_EQ(a.total_tiles, b.total_tiles);
    EXPECT_EQ(a.unconverged_tiles, b.unconverged_tiles);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        SCOPED_TRACE(a.layers[i].layer);
        EXPECT_EQ(a.layers[i].tiles, b.layers[i].tiles);
        EXPECT_EQ(a.layers[i].unconverged, b.layers[i].unconverged);
        EXPECT_TRUE(bits_eq(a.layers[i].nf_mean, b.layers[i].nf_mean,
                            "layer nf_mean"));
        EXPECT_TRUE(bits_eq(a.layers[i].w_ref, b.layers[i].w_ref, "w_ref"));
    }
}

// The reference repeat loop: repeat r degrades every mappable layer at seed
// config.seed + r·7919, an engine evaluates the degraded matrices as refresh
// overrides, and NF, tiles, and accuracy average over repeats in order.
EvalResult reference_evaluate(nn::Sequential& model, const nn::Dataset& test,
                              const EvalConfig& config) {
    nn::InferenceEngine engine(model);
    const std::vector<nn::Layer*> layers = map::mappable_layers(model);
    const std::int64_t repeats = std::max<std::int64_t>(config.repeats, 1);
    EvalResult aggregate;
    for (std::int64_t r = 0; r < repeats; ++r) {
        EvalConfig repeat_config = config;
        repeat_config.seed = config.seed + static_cast<std::uint64_t>(r) * 7919;
        EvalResult one;
        const std::map<std::string, Tensor> degraded =
            degrade_model_matrices(model, repeat_config, &one.layers);
        std::vector<const Tensor*> overrides;
        for (nn::Layer* layer : layers)
            overrides.push_back(&degraded.at(layer->name()));
        engine.refresh(overrides);
        one.accuracy = nn::evaluate(engine, test);

        double nf_sum = 0.0;
        std::int64_t nf_tiles = 0;
        for (const LayerEvalStats& ls : one.layers) {
            nf_sum += ls.nf_mean * static_cast<double>(ls.tiles);
            nf_tiles += ls.tiles;
            one.total_tiles += ls.tiles;
            one.unconverged_tiles += ls.unconverged;
        }
        one.nf_mean = nf_tiles ? nf_sum / static_cast<double>(nf_tiles) : 0.0;
        if (r == 0) {
            aggregate = std::move(one);
        } else {
            aggregate.accuracy += one.accuracy;
            aggregate.nf_mean += one.nf_mean;
            aggregate.unconverged_tiles += one.unconverged_tiles;
        }
    }
    aggregate.accuracy /= static_cast<double>(repeats);
    aggregate.nf_mean /= static_cast<double>(repeats);
    return aggregate;
}

EvalConfig cold_config(xbar::BackendKind backend) {
    EvalConfig config;
    config.xbar.size = 32;
    config.backend = backend;
    config.seed = 21;
    return config;
}

TEST(RepeatBatch, ColdMatchesReferenceBitExactAcrossRepeatCounts) {
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    // 1 = a single lane, 3 = one partial group, 8 = two full groups
    // (groups of kMaxSolveLanes/2 repeats) compiled and inferred in turn.
    for (const std::int64_t repeats : {1, 3, 8}) {
        EvalConfig config = cold_config(xbar::BackendKind::kCircuit);
        config.repeats = repeats;
        const EvalResult batched = evaluate_on_crossbars(model, test, config);
        const EvalResult reference = reference_evaluate(model, test, config);
        expect_identical(batched, reference,
                         "repeats=" + std::to_string(repeats));
        EXPECT_GT(batched.nf_mean, 0.0);
    }
}

TEST(RepeatBatch, ColdMatchesReferenceOnEveryBackend) {
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    for (const xbar::BackendKind backend :
         {xbar::BackendKind::kFast, xbar::BackendKind::kIdeal}) {
        EvalConfig config = cold_config(backend);
        config.repeats = 3;
        const EvalResult batched = evaluate_on_crossbars(model, test, config);
        const EvalResult reference = reference_evaluate(model, test, config);
        expect_identical(batched, reference,
                         std::string("backend=") + xbar::backend_name(backend));
    }
}

// FNV-1a digest of degrade_model_matrices: every layer's W′ bits in
// layer-name order (name bytes, then floats), then each layer's tiles,
// unconverged count, nf_mean and w_ref. Solves cold-start, so the digest
// does not depend on how tiles are split across pool workers.
std::uint64_t degrade_digest(nn::Sequential& model, xbar::BackendKind backend) {
    EvalConfig config;
    config.xbar.size = 16;
    config.seed = 21;
    config.backend = backend;
    std::uint64_t h = 14695981039346656037ull;
    const auto add = [&h](const void* p, std::size_t bytes) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < bytes; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    std::vector<LayerEvalStats> stats;
    const std::map<std::string, Tensor> degraded =
        degrade_model_matrices(model, config, &stats);
    for (const auto& [name, w] : degraded) {
        add(name.data(), name.size());
        add(w.data(), static_cast<std::size_t>(w.numel()) * sizeof(float));
    }
    for (const LayerEvalStats& ls : stats) {
        add(&ls.tiles, sizeof(ls.tiles));
        add(&ls.unconverged, sizeof(ls.unconverged));
        add(&ls.nf_mean, sizeof(ls.nf_mean));
        add(&ls.w_ref, sizeof(ls.w_ref));
    }
    return h;
}

TEST(RepeatBatch, DegradeModelMatricesMatchesGoldenDigests) {
    // Recorded before the scalar solver kernel and its one-repeat tile loop
    // were deleted: the one-lane tile loop must reproduce them bit for bit.
    nn::Sequential model = tiny_vgg(12);
    EXPECT_EQ(degrade_digest(model, xbar::BackendKind::kCircuit),
              0xd6797f4231d40085ull)
        << "circuit";
    EXPECT_EQ(degrade_digest(model, xbar::BackendKind::kFast),
              0x59f8bff495ed860eull)
        << "fast";
}

TEST(RepeatBatch, PerRepeatResultsMatchSingleSeedRuns) {
    // evaluate_repeats_on_crossbars with N seeds must equal N independent
    // single-seed calls — the contract the sweep runner's group execution
    // relies on for byte-identical per-repeat CellResults.
    nn::Sequential model = tiny_vgg(12);
    const nn::Dataset test = tiny_dataset(15);
    EvalConfig config = cold_config(xbar::BackendKind::kCircuit);
    const std::vector<std::uint64_t> seeds{21, 909, 4242};
    const std::vector<EvalResult> grouped =
        evaluate_repeats_on_crossbars(model, test, config, seeds);
    ASSERT_EQ(grouped.size(), seeds.size());
    for (std::size_t r = 0; r < seeds.size(); ++r) {
        const std::vector<EvalResult> one = evaluate_repeats_on_crossbars(
            model, test, config, {seeds[r]});
        ASSERT_EQ(one.size(), 1u);
        expect_identical(grouped[r], one[0],
                         "seed=" + std::to_string(seeds[r]));
    }
}

}  // namespace
}  // namespace xs::core
