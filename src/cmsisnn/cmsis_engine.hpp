// Full-model packed engine: the "exact baseline [2]" column of Table II.
//
// Executes the QModel with packed kernels (bit-exact with the reference
// engine) and produces the MCU deployment report — cycles from the cost
// model, flash/RAM from the memory model. The per-layer cycle profile is
// the software analogue of the paper's kernel cycle counters (§II-A),
// which are "deactivated during runtime": profiling here is free because
// cycles are a pure function of the layer geometry.
#pragma once

#include <span>
#include <vector>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/plan_executor.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

class CmsisEngine : public InferenceEngine {
 public:
  explicit CmsisEngine(const QModel* model, CortexM33CostTable costs = {},
                       MemoryCostTable memory = {});

  std::vector<int8_t> run(std::span<const uint8_t> image) const override;

  // Batch-amortized path through the shared plan executor: conv/fc
  // stream each packed weight pair once per lane-block (see
  // packed_kernels.hpp); pools and adds run per image (no weights to
  // amortize). Bitwise identical to run().
  bool supports_run_batch() const override { return true; }
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out) const override;

  // Copies the offline-packed weight streams and the precomputed profile
  // instead of re-running the packing analysis.
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<CmsisEngine>(*this);
  }

  // Structure-derived metrics (no execution needed).
  int64_t total_cycles() const override { return total_cycles_; }
  const std::vector<LayerProfile>& layer_profile() const override {
    return profile_;
  }
  int64_t flash_bytes() const override;
  int64_t ram_bytes() const override;

 private:
  // The executor kernel: conv, depthwise and fc through the packed
  // kernels over a whole batch.
  void run_kernel(int layer, int ordinal, std::span<const int8_t> in,
                  std::span<int8_t> out, int batch) const;

  MemoryCostTable memory_;
  PlanExecutor exec_;
  std::vector<PackedWeights> packed_;  // by layer; conv and fc only
  std::vector<LayerProfile> profile_;  // all-packed deployment_profile
  int64_t total_cycles_ = 0;
};

}  // namespace ataman
