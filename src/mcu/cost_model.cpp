#include "src/mcu/cost_model.hpp"

#include <cmath>
#include <utility>

#include "src/common/error.hpp"
#include "src/mcu/stream_plan.hpp"

namespace ataman {

bool packed_conv_uses_fast_path(const QConv2D& layer) {
  return layer.geom.in_c % 4 == 0 && layer.geom.out_c % 2 == 0;
}

int64_t packed_conv_cycles(const QConv2D& layer, const CortexM33CostTable& t) {
  const ConvGeom& g = layer.geom;
  const int64_t positions = g.positions();
  const int64_t patch = g.patch_size();
  const int64_t macs = g.macs();

  double cycles = 0.0;
  // im2col fills one q15 patch per output position.
  cycles += t.im2col_per_elem * static_cast<double>(positions * patch);
  if (packed_conv_uses_fast_path(layer)) {
    const int64_t pairs_per_chan = patch / 2;
    const int64_t singles_per_chan = patch % 2;
    cycles += t.packed_fast_per_pair *
              static_cast<double>(positions * g.out_c * pairs_per_chan);
    // Odd leftover per channel costs about one scalar MAC.
    cycles += t.packed_basic_per_mac *
              static_cast<double>(positions * g.out_c * singles_per_chan);
  } else {
    cycles += t.packed_basic_per_mac * static_cast<double>(macs);
  }
  cycles += t.packed_chan_epilogue *
            static_cast<double>(positions * g.out_c);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t packed_depthwise_cycles(const QDepthwiseConv2D& layer,
                                const CortexM33CostTable& t) {
  double cycles =
      t.packed_depthwise_per_mac * static_cast<double>(layer.macs());
  cycles += t.packed_chan_epilogue *
            static_cast<double>(layer.positions()) * layer.channels;
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t dense_cycles(const QDense& layer, const CortexM33CostTable& t) {
  double cycles = 0.0;
  cycles += t.fc_per_pair *
            static_cast<double>(layer.out_dim) * (layer.in_dim / 2);
  cycles += t.fc_per_pair * 2.0 *
            static_cast<double>(layer.out_dim) * (layer.in_dim % 2);
  cycles += t.fc_out_epilogue * static_cast<double>(layer.out_dim);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t pool_cycles(const QMaxPool& layer, const CortexM33CostTable& t) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(t.pool_per_output_elem_per_tap *
                   static_cast<double>(outputs * taps)));
}

int64_t avgpool_cycles(const QAvgPool& layer, const CortexM33CostTable& t) {
  const int64_t outputs =
      static_cast<int64_t>(layer.out_h()) * layer.out_w() * layer.channels;
  const int64_t taps = static_cast<int64_t>(layer.kernel) * layer.kernel;
  return static_cast<int64_t>(
      std::llround(t.pool_per_output_elem_per_tap *
                       static_cast<double>(outputs * taps) +
                   t.avgpool_div_per_output * static_cast<double>(outputs)));
}

int64_t qadd_cycles(const QAdd& layer, const CortexM33CostTable& t) {
  return static_cast<int64_t>(
      std::llround(t.qadd_per_elem * static_cast<double>(layer.elems())));
}

int64_t unpacked_op_cycles(const OpDescriptor& op, int64_t static_pairs,
                           int64_t static_singles,
                           int64_t recomputed_positions,
                           const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  check(recomputed_positions >= 0 && recomputed_positions <= op.positions,
        "recomputed positions out of range");
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair *
            static_cast<double>(static_pairs * recomputed_positions);
  cycles += t.unpacked_per_single *
            static_cast<double>(static_singles * recomputed_positions);
  cycles += t.unpacked_chan_epilogue *
            static_cast<double>(recomputed_positions * op.channels);
  return static_cast<int64_t>(std::llround(cycles));
}

std::vector<LayerProfile> deployment_profile(
    const QModel& model, std::span<const int64_t> static_pairs,
    std::span<const int64_t> static_singles, const CortexM33CostTable& t,
    const StreamPlan* stream) {
  check(static_pairs.size() == static_singles.size(),
        "pair/single vectors must align");
  check(static_pairs.empty() ||
            static_cast<int>(static_pairs.size()) ==
                model.approx_layer_count(),
        "one pair count per approximable layer required");
  check(stream == nullptr || stream->layers.size() == model.layers.size(),
        "stream plan does not match the model");
  std::vector<LayerProfile> rows;
  rows.reserve(model.layers.size() + 1);
  size_t ordinal = 0;
  int out_dim = 0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const QLayer& layer = model.layers[l];
    const StreamLayerPlan* lp =
        stream != nullptr ? &stream->layers[l] : nullptr;
    LayerProfile row;
    double cycles = t.layer_dispatch;
    if (const OpDescriptor d = describe_layer(layer); d.skippable) {
      const int64_t positions =
          lp != nullptr ? lp->recomputed_positions : d.positions;
      const int64_t pairs =
          static_pairs.empty() ? -1 : static_pairs[ordinal];
      row.kind = d.kind == OpKind::kConv ? "conv" : "depthwise";
      if (pairs >= 0) {
        const int64_t singles = static_singles[ordinal];
        row.kind += "(unpacked)";
        cycles = static_cast<double>(
            unpacked_op_cycles(d, pairs, singles, positions, t));
        row.macs = (2 * pairs + singles) * positions;
      } else {
        const auto* conv = std::get_if<QConv2D>(&layer);
        double kernel = static_cast<double>(
            conv != nullptr
                ? packed_conv_cycles(*conv, t)
                : packed_depthwise_cycles(std::get<QDepthwiseConv2D>(layer),
                                          t));
        // Every packed term (im2col, MACs, epilogue) is proportional to
        // output positions.
        if (positions != d.positions)
          kernel = kernel * static_cast<double>(positions) /
                   static_cast<double>(d.positions);
        cycles += kernel;
        row.macs = d.skippable_operand_count() * positions;
      }
      ++ordinal;
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      row.kind = "pool";
      cycles += static_cast<double>(pool_cycles(*pool, t));
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      row.kind = "avgpool";
      cycles += static_cast<double>(avgpool_cycles(*pool, t));
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      row.kind = "fc";
      cycles += static_cast<double>(dense_cycles(*fc, t));
      row.macs = fc->macs();
      out_dim = fc->out_dim;
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      row.kind = "add";
      cycles += static_cast<double>(qadd_cycles(*add, t));
    }
    if (lp != nullptr && lp->spliced) {
      cycles += t.stream_splice_per_elem *
                static_cast<double>(lp->splice_hi - lp->splice_lo) *
                static_cast<double>(lp->out_rows) * lp->out_ch;
    }
    row.cycles = static_cast<int64_t>(std::llround(cycles));
    rows.push_back(std::move(row));
  }
  rows.push_back({"softmax",
                  static_cast<int64_t>(
                      std::llround(t.softmax_per_logit * out_dim)),
                  0});
  return rows;
}

int64_t sum_profile_cycles(const std::vector<LayerProfile>& profile) {
  int64_t total = 0;
  for (const LayerProfile& row : profile) total += row.cycles;
  return total;
}

int64_t packed_model_cycles(const QModel& model, const CortexM33CostTable& t) {
  return sum_profile_cycles(deployment_profile(model, {}, {}, t));
}

StreamingCostRow steady_state_stream_cost(const QModel& model, int stride_cols,
                                          const CortexM33CostTable& t) {
  const StreamPlan plan = plan_stream_steady(model, stride_cols);
  StreamingCostRow row;
  row.stride_cols = stride_cols;
  row.cycles_per_frame =
      sum_profile_cycles(deployment_profile(model, {}, {}, t, &plan));
  row.full_cycles = packed_model_cycles(model, t);
  row.macs_per_frame = plan.frame_macs;
  row.full_macs = plan.full_macs;
  row.spliced_elems = plan.spliced_elems;
  row.reuse_ratio = plan.reuse_ratio();
  return row;
}

void attach_streaming_row(DeployReport& report, const QModel& model,
                          int stride_cols, const BoardSpec& board,
                          const CortexM33CostTable& t) {
  const StreamingCostRow row =
      steady_state_stream_cost(model, stride_cols, t);
  report.stream_stride_cols = stride_cols;
  report.steady_state_cycles_per_frame = row.cycles_per_frame;
  report.stream_reuse_ratio = row.reuse_ratio;
  report.steady_state_latency_ms_per_frame =
      board.cycles_to_ms(row.cycles_per_frame);
  report.steady_state_energy_mj_per_frame =
      board.energy_mj(row.cycles_per_frame);
}

}  // namespace ataman
