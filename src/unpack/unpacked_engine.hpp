// Full-model approximate engine: unpacked conv + depthwise layers (with
// optional significance skipping baked in), packed FC, reference
// pooling. This is the "Proposed (ours)" column of Table II.
//
// Hybrid deployments (see layer_selection.hpp) may keep individual
// approximable layers on the packed CMSIS-style kernel instead: pass an
// `unpack_selection` vector (one flag per approximable-layer ordinal).
// Packed layers execute exactly (skips only remove instructions from
// *unpacked* code), keep their weights in the flash data segment, and
// are costed with the packed kernel model.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/cmsisnn/packed_kernels.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/plan_executor.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/skip_mask.hpp"
#include "src/quant/qtypes.hpp"
#include "src/unpack/unpacked_layer.hpp"

namespace ataman {

class UnpackedEngine : public InferenceEngine {
 public:
  // `mask` == nullptr -> exact unpacking (no skips).
  // `unpack_selection` == nullptr -> every approximable layer (conv +
  // depthwise) is unpacked (the paper's policy); otherwise one 0/1 flag
  // per approximable-layer ordinal.
  UnpackedEngine(const QModel* model, const SkipMask* mask = nullptr,
                 CortexM33CostTable costs = {}, MemoryCostTable memory = {},
                 const std::vector<uint8_t>* unpack_selection = nullptr);

  std::vector<int8_t> run(std::span<const uint8_t> image) const override;

  // Batch-amortized path through the shared plan executor: unpacked
  // channel programs and packed FC weight streams execute once per
  // lane-block (hybrid packed fallbacks use the same lane-blocked packed
  // kernels). Bitwise identical to run().
  bool supports_run_batch() const override { return true; }
  void run_batch(std::span<const std::span<const uint8_t>> images,
                 std::vector<std::vector<int8_t>>& logits_out) const override;

  // Copies the unpacked channel programs / packed FC streams verbatim —
  // much cheaper than re-unpacking, which is why serve pools clone a
  // shared prototype per (mask, selection) instead of reconstructing.
  // The mask is baked into the programs at construction, so this engine
  // deliberately does NOT support rebind_mask().
  std::unique_ptr<InferenceEngine> clone() const override {
    return std::make_unique<UnpackedEngine>(*this);
  }

  int64_t total_cycles() const override { return total_cycles_; }
  // Executed (retained) conv/depthwise MACs + FC MACs per inference.
  int64_t executed_macs() const { return executed_macs_; }
  int64_t mac_ops() const override { return executed_macs_; }
  const std::vector<LayerProfile>& layer_profile() const override {
    return profile_;
  }
  int unpacked_conv_count() const;  // unpacked approximable layers

  FlashReport flash(const MemoryCostTable& t = {}) const;
  int64_t flash_bytes() const override { return flash(memory_).total_bytes; }
  int64_t ram_bytes() const override;

  using InferenceEngine::deploy;
  // As the interface deploy, but reported under `design_name` (e.g.
  // "ataman(5%)") instead of the engine default.
  DeployReport deploy(const Dataset& eval, const BoardSpec& board, int limit,
                      const std::string& design_name) const;

 private:
  // Per approximable-layer ordinal: exactly one execution form is
  // engaged — an unpacked program (conv or depthwise) or the packed
  // fallback (PackedWeights stream for conv; the depthwise loop kernel
  // needs no prepacked state).
  struct ApproxExec {
    std::optional<UnpackedConv> unpacked;
    std::optional<UnpackedDepthwise> unpacked_dw;
    std::optional<PackedWeights> packed;
  };

  // The executor kernel: the ordinal's unpacked program or packed
  // fallback for conv/depthwise, the packed kernel for fc.
  void run_kernel(int layer, int ordinal, std::span<const int8_t> in,
                  std::span<int8_t> out, int batch) const;

  MemoryCostTable memory_;
  PlanExecutor exec_;
  std::vector<ApproxExec> convs_;          // by approximable ordinal
  // Retained pairs / singles of each ordinal's unpacked program, -1 / 0
  // for a packed one: what deployment_profile and unpacked_flash price.
  std::vector<int64_t> static_pairs_;
  std::vector<int64_t> static_singles_;
  std::vector<PackedWeights> packed_fc_;   // by layer; fc only
  std::vector<LayerProfile> profile_;
  int64_t total_cycles_ = 0;
  int64_t executed_macs_ = 0;
};

}  // namespace ataman
