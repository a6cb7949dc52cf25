#include "src/unpack/layer_selection.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"

namespace ataman {

std::vector<uint8_t> HybridPlan::unpack_selection() const {
  std::vector<uint8_t> out;
  out.reserve(choices.size());
  for (const LayerDeployChoice& c : choices)
    out.push_back(c.unpack ? 1 : 0);
  return out;
}

int64_t HybridPlan::total_cycle_saving() const {
  int64_t total = 0;
  for (const LayerDeployChoice& c : choices)
    if (c.unpack) total += c.packed_cycles - c.unpacked_cycles;
  return total;
}

int64_t HybridPlan::total_flash_delta() const {
  int64_t total = 0;
  for (const LayerDeployChoice& c : choices)
    if (c.unpack) total += c.unpacked_flash - c.packed_flash;
  return total;
}

int HybridPlan::unpacked_count() const {
  int n = 0;
  for (const LayerDeployChoice& c : choices) n += c.unpack ? 1 : 0;
  return n;
}

HybridPlan analyze_layer_choices(const QModel& model, const SkipMask& mask,
                                 const CortexM33CostTable& costs,
                                 const MemoryCostTable& memory) {
  const UnpackStats stats = compute_unpack_stats(model, mask);
  // Rows of the all-packed and all-unpacked deployments, one per layer.
  const std::vector<LayerProfile> packed =
      deployment_profile(model, {}, {}, costs);
  const std::vector<LayerProfile> unpacked = deployment_profile(
      model, stats.static_pairs, stats.static_singles, costs);
  HybridPlan plan;
  size_t ordinal = 0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const OpDescriptor d = describe_layer(model.layers[l]);
    if (!d.skippable) continue;
    LayerDeployChoice c;
    c.packed_cycles = packed[l].cycles;
    c.unpacked_cycles = unpacked[l].cycles;
    c.packed_flash = approx_layer_flash(d, -1, 0, memory).total_bytes;
    c.unpacked_flash = approx_layer_flash(d, stats.static_pairs[ordinal],
                                          stats.static_singles[ordinal],
                                          memory)
                           .total_bytes;
    c.unpack = false;  // selection decides
    plan.choices.push_back(c);
    ++ordinal;
  }
  return plan;
}

HybridPlan select_layers_to_unpack(const QModel& model, const SkipMask& mask,
                                   int64_t flash_budget,
                                   const CortexM33CostTable& costs,
                                   const MemoryCostTable& memory) {
  HybridPlan plan = analyze_layer_choices(model, mask, costs, memory);

  // Baseline model flash with everything packed.
  int64_t flash = packed_flash(model, memory).total_bytes
                  // swap generic runtime for the customized one (the
                  // hybrid build is generated code either way)
                  - memory.generic_runtime_code + memory.custom_runtime_code;

  // Candidate order: best cycle-saving per extra flash byte first.
  std::vector<int> order(plan.choices.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto& ca = plan.choices[static_cast<size_t>(a)];
    const auto& cb = plan.choices[static_cast<size_t>(b)];
    const double da = std::max<int64_t>(1, ca.unpacked_flash - ca.packed_flash);
    const double db = std::max<int64_t>(1, cb.unpacked_flash - cb.packed_flash);
    return static_cast<double>(ca.packed_cycles - ca.unpacked_cycles) / da >
           static_cast<double>(cb.packed_cycles - cb.unpacked_cycles) / db;
  });

  for (const int idx : order) {
    LayerDeployChoice& c = plan.choices[static_cast<size_t>(idx)];
    const int64_t saving = c.packed_cycles - c.unpacked_cycles;
    if (saving <= 0) continue;  // unpacking would slow this layer down
    const int64_t delta = c.unpacked_flash - c.packed_flash;
    if (flash_budget > 0 && flash + delta > flash_budget) continue;
    c.unpack = true;
    flash += delta;
  }
  return plan;
}

}  // namespace ataman
