// The one DAG walk every in-tree engine executes through.
//
// A PlanExecutor holds a model's liveness-based ActivationPlan
// (src/mcu/memory_model) and walks the layers in stored (topological)
// order for run, run_batch and run_from. Each tensor occupies its
// plan slot as `batch` contiguous per-image blocks: image b of tensor t
// lives at slot + b * elems(t). Pool, average pool and residual add run
// per image through the reference kernels; the engine supplies only
// the weighted layers (conv, depthwise, dense) as one Kernel callback
// that receives the whole batch, so a batch-amortized kernel streams
// its weights once per lane-block instead of once per image.
//
// The executor is stateless after construction: slot buffers live for
// one call, so a single instance serves concurrent callers.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "src/mcu/memory_model.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

// Quantize u8 pixels into the model's int8 input scale, element by
// element (q = pixel - 128 for the standard [0,1] input scale). Every
// path that feeds a network input goes through here, so they all
// quantize identically. `out` must be as long as `pixels`.
void quantize_pixels(const QuantParams& input, std::span<const uint8_t> pixels,
                     std::span<int8_t> out);

class PlanExecutor {
 public:
  // Runs weighted layer `layer` (a QConv2D, QDepthwiseConv2D or QDense)
  // over `batch` images. `ordinal` is the layer's approximable ordinal
  // (the SkipMask index) for conv/depthwise and -1 for dense. `in`/`out`
  // hold `batch` contiguous per-image blocks.
  using Kernel = std::function<void(int layer, int ordinal,
                                    std::span<const int8_t> in,
                                    std::span<int8_t> out, int batch)>;

  explicit PlanExecutor(const QModel& model);

  // One image: quantize it into tensor 0 and walk every layer.
  std::vector<int8_t> run(std::span<const uint8_t> image,
                          const Kernel& kernel) const;

  // Layer-major walk over the whole batch; one logits vector per image.
  // The caller rejects empty batches.
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out,
                 const Kernel& kernel) const;

  // Resume at a linear boundary with tensor `layer_begin` given; see
  // InferenceEngine::run_from for the contract.
  std::vector<int8_t> run_from(int layer_begin,
                               std::span<const int8_t> activations,
                               const Kernel& kernel) const;

 private:
  class Arena;
  void walk(int layer_begin, Arena& arena, const Kernel& kernel) const;

  const QModel* model_;
  ActivationPlan plan_;
};

}  // namespace ataman
