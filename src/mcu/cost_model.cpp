#include "src/mcu/cost_model.hpp"

#include <cmath>

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

int64_t unpacked_conv_cycles(const QConv2D& layer, int64_t static_pairs,
                             int64_t static_singles,
                             const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  const int64_t positions = layer.geom.positions();
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair * static_cast<double>(static_pairs * positions);
  cycles +=
      t.unpacked_per_single * static_cast<double>(static_singles * positions);
  cycles += t.unpacked_chan_epilogue *
            static_cast<double>(positions * layer.geom.out_c);
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

int64_t unpacked_depthwise_cycles(const QDepthwiseConv2D& layer,
                                  int64_t static_pairs,
                                  int64_t static_singles,
                                  const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  const int64_t positions = layer.positions();
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair * static_cast<double>(static_pairs * positions);
  cycles +=
      t.unpacked_per_single * static_cast<double>(static_singles * positions);
  cycles += t.unpacked_chan_epilogue *
            static_cast<double>(positions * layer.channels);
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

std::vector<LayerProfile> packed_layer_profile(const QModel& model,
                                               const CortexM33CostTable& t) {
  const auto dispatch = static_cast<int64_t>(std::llround(t.layer_dispatch));
  std::vector<LayerProfile> rows;
  int out_dim = 0;
  for (const QLayer& layer : model.layers) {
    rows.push_back({"dispatch", dispatch, 0});
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      rows.push_back({"conv", packed_conv_cycles(*conv, t), conv->geom.macs()});
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      rows.push_back(
          {"depthwise", packed_depthwise_cycles(*dw, t), dw->macs()});
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      rows.push_back({"pool", pool_cycles(*pool, t), 0});
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      rows.push_back({"avgpool", avgpool_cycles(*pool, t), 0});
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      rows.push_back({"fc", dense_cycles(*fc, t), fc->macs()});
      out_dim = fc->out_dim;
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      rows.push_back({"add", qadd_cycles(*add, t), 0});
    }
  }
  rows.push_back({"softmax",
                  static_cast<int64_t>(std::llround(t.softmax_per_logit *
                                                    out_dim)),
                  0});
  return rows;
}

int64_t sum_profile_cycles(const std::vector<LayerProfile>& profile) {
  int64_t total = 0;
  for (const LayerProfile& row : profile) total += row.cycles;
  return total;
}

int64_t packed_model_cycles(const QModel& model, const CortexM33CostTable& t) {
  return sum_profile_cycles(packed_layer_profile(model, t));
}

BatchedCycleRow batched_packed_model_cycles(const QModel& model, int batch,
                                            const CortexM33CostTable& t) {
  check(batch >= 1, "batched_packed_model_cycles: batch must be >= 1");
  const int64_t single = packed_model_cycles(model, t);
  const int64_t dispatch_per_image = static_cast<int64_t>(std::llround(
      t.layer_dispatch * static_cast<double>(model.layers.size())));
  // Kernel work scales linearly with the batch; dispatch is paid once per
  // (layer, batch) instead of once per (layer, image).
  BatchedCycleRow row;
  row.batch = batch;
  row.amortized_dispatch =
      dispatch_per_image * static_cast<int64_t>(batch - 1);
  row.total_cycles =
      single * static_cast<int64_t>(batch) - row.amortized_dispatch;
  row.per_image_cycles = static_cast<double>(row.total_cycles) /
                         static_cast<double>(batch);
  return row;
}

StreamingCostRow steady_state_stream_cost(const QModel& model, int stride_cols,
                                          const CortexM33CostTable& t) {
  const StreamPlan plan = plan_stream_steady(model, stride_cols);
  StreamingCostRow row;
  row.stride_cols = stride_cols;
  row.full_cycles = packed_model_cycles(model, t);
  row.macs_per_frame = plan.frame_macs;
  row.full_macs = plan.full_macs;
  row.spliced_elems = plan.spliced_elems;
  row.reuse_ratio = plan.reuse_ratio();

  double total = 0.0;
  int out_dim = 0;
  for (size_t l = 0; l < model.layers.size(); ++l) {
    const QLayer& layer = model.layers[l];
    const StreamLayerPlan& lp = plan.layers[l];
    total += t.layer_dispatch;
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      // Every packed-conv term (im2col, MACs, epilogue) is proportional
      // to output positions, so the streamed layer scales by the
      // recomputed fraction of the plan.
      total += static_cast<double>(packed_conv_cycles(*conv, t)) *
               static_cast<double>(lp.recomputed_positions) /
               static_cast<double>(lp.total_positions);
    } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
      total += static_cast<double>(packed_depthwise_cycles(*dw, t)) *
               static_cast<double>(lp.recomputed_positions) /
               static_cast<double>(lp.total_positions);
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      total += static_cast<double>(pool_cycles(*pool, t));
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      total += static_cast<double>(avgpool_cycles(*pool, t));
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      total += static_cast<double>(dense_cycles(*fc, t));
      out_dim = fc->out_dim;
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      total += static_cast<double>(qadd_cycles(*add, t));
    }
    if (lp.spliced) {
      total += t.stream_splice_per_elem *
               static_cast<double>(lp.splice_hi - lp.splice_lo) *
               static_cast<double>(lp.out_rows) * lp.out_ch;
    }
  }
  total += t.softmax_per_logit * out_dim;
  row.cycles_per_frame = static_cast<int64_t>(std::llround(total));
  return row;
}

int64_t unpacked_conv_stream_cycles(const QConv2D& layer, int64_t static_pairs,
                                    int64_t static_singles,
                                    int64_t recomputed_positions,
                                    const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  check(recomputed_positions >= 0 &&
            recomputed_positions <= layer.geom.positions(),
        "recomputed positions out of range");
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair *
            static_cast<double>(static_pairs * recomputed_positions);
  cycles += t.unpacked_per_single *
            static_cast<double>(static_singles * recomputed_positions);
  cycles += t.unpacked_chan_epilogue *
            static_cast<double>(recomputed_positions * layer.geom.out_c);
  return static_cast<int64_t>(std::llround(cycles));
}

int64_t unpacked_depthwise_stream_cycles(const QDepthwiseConv2D& layer,
                                         int64_t static_pairs,
                                         int64_t static_singles,
                                         int64_t recomputed_positions,
                                         const CortexM33CostTable& t) {
  check(static_pairs >= 0 && static_singles >= 0,
        "negative retained op counts");
  check(recomputed_positions >= 0 &&
            recomputed_positions <= layer.positions(),
        "recomputed positions out of range");
  double cycles = t.unpacked_layer_setup;
  cycles += t.unpacked_per_pair *
            static_cast<double>(static_pairs * recomputed_positions);
  cycles += t.unpacked_per_single *
            static_cast<double>(static_singles * recomputed_positions);
  cycles += t.unpacked_chan_epilogue *
            static_cast<double>(recomputed_positions * layer.channels);
  return static_cast<int64_t>(std::llround(cycles));
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
