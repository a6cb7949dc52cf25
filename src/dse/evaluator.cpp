#include "src/dse/evaluator.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/core/engine_iface.hpp"
#include "src/core/eval.hpp"

namespace ataman {

ConfigEvaluator::ConfigEvaluator(
    const QModel* model, const std::vector<LayerSignificance>* significance,
    const Dataset* eval, int eval_images, CortexM33CostTable costs,
    MemoryCostTable memory, std::string accuracy_engine)
    : model_(model),
      significance_(significance),
      eval_(eval),
      eval_images_(eval_images),
      costs_(costs),
      memory_(memory),
      accuracy_engine_(std::move(accuracy_engine)) {
  check(model != nullptr && significance != nullptr && eval != nullptr,
        "evaluator needs model, significance and eval set");
  check(static_cast<int>(significance->size()) ==
            model->approx_layer_count(),
        "significance does not match model");
  check(EngineRegistry::instance().contains(accuracy_engine_),
        "unknown accuracy engine '" + accuracy_engine_ + "'");
  baseline_cycles_ = packed_model_cycles(*model_, costs_);
  conv_total_macs_ = model_->approx_mac_count();
  fc_total_macs_ = model_->mac_count() - conv_total_macs_;
}

void ConfigEvaluator::set_stream_stride(int stride_cols) {
  check(stride_cols >= 0, "stream stride must be >= 0 (0 disables)");
  stream_stride_ = stride_cols;
  stream_plan_ = stride_cols > 0 ? plan_stream_steady(*model_, stride_cols)
                                 : StreamPlan{};
}

DseResult ConfigEvaluator::evaluate(const ApproxConfig& config) const {
  check(static_cast<int>(config.tau.size()) == model_->approx_layer_count(),
        "config does not match model");
  const SkipMask mask = make_skip_mask(*model_, *significance_, config);
  DseResult r = static_metrics(config, mask);
  // Zeroed-weight copy: numerically identical to skip-aware execution
  // (tests assert it) but branch-free, so the sweep runs ~2x faster.
  const QModel masked = apply_skip_mask(*model_, mask);
  EngineConfig engine_cfg;
  engine_cfg.model = &masked;
  engine_cfg.costs = costs_;
  engine_cfg.memory = memory_;
  const auto engine =
      EngineRegistry::instance().create(accuracy_engine_, engine_cfg);
  r.accuracy = evaluate_batch(*engine, *eval_, eval_images_).top1;
  return r;
}

DseResult ConfigEvaluator::evaluate_static(const ApproxConfig& config) const {
  check(static_cast<int>(config.tau.size()) == model_->approx_layer_count(),
        "config does not match model");
  return static_metrics(config,
                        make_skip_mask(*model_, *significance_, config));
}

DseResult ConfigEvaluator::static_metrics(const ApproxConfig& config,
                                          const SkipMask& mask) const {
  DseResult r;
  r.config = config;
  const UnpackStats stats = compute_unpack_stats(*model_, mask);
  r.executed_macs = stats.retained_conv_macs + fc_total_macs_;
  r.skipped_conv_macs = conv_total_macs_ - stats.retained_conv_macs;
  r.conv_mac_reduction =
      conv_total_macs_ > 0
          ? static_cast<double>(r.skipped_conv_macs) /
                static_cast<double>(conv_total_macs_)
          : 0.0;

  // The all-unpacked deployment through the one cost walk; with a stream
  // stride set, the same deployment's steady-state frame under the splice
  // plan (pure geometry, shared across configs).
  r.cycles = sum_profile_cycles(deployment_profile(
      *model_, stats.static_pairs, stats.static_singles, costs_));
  if (stream_stride_ > 0) {
    r.stream_cycles_per_frame = sum_profile_cycles(
        deployment_profile(*model_, stats.static_pairs, stats.static_singles,
                           costs_, &stream_plan_));
    r.stream_energy_mj_per_frame =
        BoardSpec{}.energy_mj(r.stream_cycles_per_frame);
  }
  r.latency_reduction =
      1.0 - static_cast<double>(r.cycles) /
                static_cast<double>(baseline_cycles_);
  r.flash_bytes =
      unpacked_flash(*model_, stats.static_pairs, stats.static_singles,
                     memory_)
          .total_bytes;
  return r;
}

}  // namespace ataman
