// Deployment report: the per-design row of the paper's tables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/mcu/board.hpp"

namespace ataman {

struct LayerProfile {
  // One row per layer, then "softmax" (see deployment_profile):
  // "conv", "depthwise", "pool", "avgpool", "fc", "add", with an
  // "(unpacked)" suffix on unpacked conv/depthwise rows.
  std::string kind;
  int64_t cycles = 0;
  int64_t macs = 0;
};

struct DeployReport {
  std::string design;          // e.g. "cmsis-nn", "ataman(0%)", "x-cube-ai"
  std::string network;
  // Paper topology notation, generalized to compact block form: plain
  // chain segments keep the "3-2-2" counts, residual blocks appear as
  // bracketed groups (e.g. "1-[r1]-1-[r1]-1-1" for the mobilenetv2 zoo
  // entry, [rN] = N inverted-residual blocks with a QAdd skip edge).
  std::string topology;
  double top1_accuracy = 0.0;  // fraction in [0,1]
  int64_t cycles = 0;
  double latency_ms = 0.0;
  int64_t mac_ops = 0;         // executed (non-skipped) conv+fc MACs
  int64_t flash_bytes = 0;
  double flash_percent = 0.0;  // of board flash capacity
  int64_t ram_bytes = 0;
  double energy_mj = 0.0;
  bool fits_flash = true;
  bool fits_ram = true;
  // Steady-state streaming row (stream_stride_cols == 0: not modeled):
  // per-frame cost of serving overlapping windows that advance
  // stream_stride_cols input columns per frame with temporal activation
  // reuse (src/mcu/stream_plan.hpp); filled by attach_streaming_row.
  int stream_stride_cols = 0;
  int64_t steady_state_cycles_per_frame = 0;
  double steady_state_latency_ms_per_frame = 0.0;
  double steady_state_energy_mj_per_frame = 0.0;
  double stream_reuse_ratio = 0.0;  // full-frame MACs / recomputed MACs
  std::vector<LayerProfile> per_layer;

  void finalize(const BoardSpec& board) {
    latency_ms = board.cycles_to_ms(cycles);
    energy_mj = board.energy_mj(cycles);
    if (stream_stride_cols > 0) {
      steady_state_latency_ms_per_frame =
          board.cycles_to_ms(steady_state_cycles_per_frame);
      steady_state_energy_mj_per_frame =
          board.energy_mj(steady_state_cycles_per_frame);
    }
    flash_percent = 100.0 * static_cast<double>(flash_bytes) /
                    static_cast<double>(board.flash_bytes);
    fits_flash = flash_bytes <= board.flash_bytes;
    fits_ram = ram_bytes <= board.ram_bytes;
  }
};

}  // namespace ataman
