// Zero-allocation inference engine over a Sequential layer stack
// (DESIGN.md §6).
//
// The training-oriented Layer::forward path allocates a fresh output tensor
// per layer and, pre-guard, cached a deep copy of every input. For the
// Monte-Carlo evaluation loop — thousands of eval-mode forward passes over
// the same network — that cost dominates once the crossbar solve is fast.
// The engine instead compiles the layer stack into a step plan once and
// streams activations through a two-buffer ping-pong arena:
//
//  * Conv2d (+ following BatchNorm2d, + following ReLU) become ONE step:
//    the BN affine is folded into the conv weights/bias at refresh() time,
//    the whole batch runs as a single tiled GEMM against weights packed
//    once per refresh, and the bias+ReLU epilogue runs on each GEMM tile
//    while it is hot — eliminating two full passes over every activation
//    map plus the per-call weight packing.
//  * The conv GEMM is implicit (tensor::gemm_conv_tiles): its kernels read
//    the im2col matrix straight from the activation through per-layer
//    lane masks, so no im2col buffer exists. This covers stride-1 convs
//    with 2·pad = k − 1; construction rejects any other conv.
//  * Conv activations stay channel-major ("CN": channels × batch·H·W)
//    through the conv trunk, so batched GEMM outputs need no reshuffle and
//    feed the next conv in place; Flatten transposes back to batch-major
//    once, on the smallest map.
//  * Linear (+ following ReLU) is fused the same way.
//  * Dropout (identity at inference) is skipped.
//
// Weight swapping: refresh(mac_overrides) rebuilds the folded weights from
// externally supplied MAC matrices (the evaluator's degraded W′) WITHOUT
// touching the model — folding happens after the swap, per refresh, so BN
// folding composes correctly with per-repeat degraded weights.
//
// One forward path: the folded weights live in a CompiledInstance, and
// every forward is forward_batched over one or more instances. refresh()
// compiles into the engine's own instance and forward() is a one-lane
// forward_batched over it; the Monte-Carlo evaluator compiles one instance
// per repeat and runs them as lanes of one pass. Layer::forward stays the
// reference the engine is tested against.
//
// After a warm-up forward, steady-state forwards of the same batch shape
// perform zero heap allocations (pinned by tests/nn_infer_test.cpp).
#pragma once

#include "nn/sequential.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

#include <cstdint>
#include <vector>

namespace xs::nn {

class BatchNorm2d;
class Conv2d;
class Linear;

// One compiled weight set for an InferenceEngine: per mappable layer the
// folded weights (BN composed in at compile time), folded bias, and — for
// conv steps — the GEMM panel-packed A matrix. Instances are engine-shaped
// but engine-independent storage, so the Monte-Carlo evaluator can hold R
// degraded instances and run them all through one engine (forward_batched)
// instead of refresh()ing between repeats. Storage is reused across
// recompiles of the same model shape.
struct CompiledInstance {
    struct Slot {
        Tensor w;  // folded weights: conv (Cout × patch), linear (in × out)
        Tensor b;  // folded bias; empty when the step has no epilogue
        tensor::PackedGemmA wpack;  // conv only: panel-packed w
    };
    std::vector<Slot> slots;  // ordered like map::mappable_layers(model)
};

class InferenceEngine {
public:
    // Compiles the plan and folds the current parameters (refresh()).
    // The engine keeps pointers into `model`; it must outlive the engine
    // and its layer structure must not change (weights may). Throws when a
    // Conv2d is not stride 1 with 2·pad = k − 1, naming the layer.
    explicit InferenceEngine(Sequential& model);

    // Non-copyable (owns arenas keyed to the plan), movable.
    InferenceEngine(const InferenceEngine&) = delete;
    InferenceEngine& operator=(const InferenceEngine&) = delete;
    InferenceEngine(InferenceEngine&&) = default;
    InferenceEngine& operator=(InferenceEngine&&) = default;

    // Rebuild the engine's own compiled instance (folded weights/biases)
    // from the model's current parameters. Call after any parameter
    // mutation (training step, weight injection).
    void refresh();

    // Same, but each mappable (Conv2d/Linear) layer takes its MAC matrix
    // (rows = inputs × cols = outputs, the map::extract_matrix orientation)
    // from `mac_overrides`, ordered like map::mappable_layers(model); null
    // entries fall back to the layer's own parameters. This is how degraded
    // crossbar weights W′ are evaluated without mutating the model.
    void refresh(const std::vector<const tensor::Tensor*>& mac_overrides);

    // Eval-mode forward through the engine's own instance: a one-lane
    // forward_batched. The returned reference points at an engine-owned
    // buffer and stays valid until the next forward call on this engine.
    const Tensor& forward(const Tensor& x);
    // Zero-copy variant reading the batch straight from caller storage
    // (e.g. a contiguous slice of a dataset tensor).
    const Tensor& forward(const float* x, const tensor::Shape& shape);

    // Compile one mappable layer's folded weight set into `out` (slot
    // storage reused when already shaped). `mac_override` follows the same
    // contract as refresh(): a (inputs × outputs) MAC matrix, or null for
    // the layer's own parameters. Folding runs in double and the conv pack
    // is rebuilt, exactly like refresh() — an instance compiled from the
    // same MAC matrices is bit-identical to a refresh()ed engine.
    void compile_instance_slot(std::size_t slot,
                               const tensor::Tensor* mac_override,
                               CompiledInstance& out) const;
    // All slots at once; `mac_overrides` empty means model parameters.
    void compile_instance(
        const std::vector<const tensor::Tensor*>& mac_overrides,
        CompiledInstance& out) const;

    // Evaluate `count` compiled instances over ONE input batch in a single
    // pass: lanes share the input (and the first conv's CN copy of it) and
    // produce a lane-major stacked output — rows [r·n, (r+1)·n) are
    // instance r's result, bit-identical to a one-lane pass over it.
    // The returned reference points at an engine-owned buffer and stays
    // valid until the next forward/forward_batched call on this engine.
    // Steady state performs no heap allocation (kGeneric fallback steps
    // excepted).
    const Tensor& forward_batched(const float* x, const tensor::Shape& shape,
                                  const CompiledInstance* const* instances,
                                  std::size_t count);

    // Number of mappable layers the plan found (refresh override slots).
    std::size_t mappable_count() const { return mappable_count_; }

private:
    struct Step {
        enum class Kind {
            kConv,      // Conv2d [+ folded BN] [+ fused ReLU]
            kLinear,    // Linear [+ fused ReLU]
            kBatchNorm, // standalone BatchNorm2d (eval statistics)
            kReLU,      // standalone ReLU (in-place on the arena)
            kMaxPool,
            kAvgPool,
            kFlatten,
            kGeneric,   // fallback: Layer::forward(x, false) — allocates
        };
        Kind kind;
        Layer* layer = nullptr;
        BatchNorm2d* bn = nullptr;  // folded into kConv when non-null
        bool relu = false;          // fused ReLU epilogue
        bool epilogue = false;      // bias add and/or ReLU needed
        // Geometry captured at plan time (layer structure is immutable).
        std::int64_t cin = 0, cout = 0, k = 0, stride = 0, pad = 0, patch = 0;
        std::int64_t in_features = 0, out_features = 0;
        std::int64_t pool_kernel = 0;
    };

    void build_plan(Sequential& model);
    // Shared folding kernel of refresh() and compile_instance_slot.
    void fold_step(const Step& step, const Tensor* mac_override,
                   CompiledInstance::Slot& slot) const;

    // The forward body behind forward() and forward_batched(), which only
    // differ in their trace span.
    const Tensor& run(const float* x, const tensor::Shape& shape,
                      const CompiledInstance* const* instances,
                      std::size_t count);

    std::vector<Step> steps_;
    std::vector<std::size_t> mappable_steps_;  // steps_ indices of mappables
    std::size_t mappable_count_ = 0;
    CompiledInstance own_;  // refresh()'s weights, forward()'s one lane
    // Activation ping-pong buffers and the conv input copy and tables live
    // in a per-thread scratch arena shared by every engine on the thread (see
    // engine_scratch() in infer.cpp): evaluators build a fresh engine per
    // Monte-Carlo evaluation, and per-engine buffers would hand their multi-MB
    // allocations back to the OS each time — repaying page faults and zero
    // fills on every eval. Only the final output is engine-owned (out_), so
    // the documented "valid until the next forward on this engine" contract
    // survives other engines running on the same thread in between.
    Tensor out_;               // last forward's output (engine-owned copy)
    tensor::Shape cur_shape_;  // logical NCHW shape of the current buffer
};

}  // namespace xs::nn
