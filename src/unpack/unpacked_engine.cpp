#include "src/unpack/unpacked_engine.hpp"

#include <functional>

#include "src/common/error.hpp"

namespace ataman {

UnpackedEngine::UnpackedEngine(const QModel* model, const SkipMask* mask,
                               CortexM33CostTable costs,
                               MemoryCostTable memory,
                               const std::vector<uint8_t>* unpack_selection)
    : InferenceEngine(model, "ataman"),
      costs_(costs),
      memory_(memory),
      exec_(*model),
      packed_fc_(model->layers.size()) {
  if (mask != nullptr) mask->validate(this->model());
  if (unpack_selection != nullptr) {
    check(static_cast<int>(unpack_selection->size()) ==
              this->model().approx_layer_count(),
          "unpack selection size must match approximable layer count");
  }

  int ordinal = 0;
  int out_dim = 0;
  double cycles = 0.0;
  for (size_t l = 0; l < packed_fc_.size(); ++l) {
    const QLayer& layer = this->model().layers[l];
    const auto* conv = std::get_if<QConv2D>(&layer);
    const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
    if (conv != nullptr || dw != nullptr) {
      const bool unpack =
          unpack_selection == nullptr ||
          (*unpack_selection)[static_cast<size_t>(ordinal)] != 0;
      ApproxExec exec;
      exec.is_unpacked = unpack;
      const uint8_t* skip =
          mask != nullptr ? mask->layer_skip(ordinal) : nullptr;
      if (unpack && conv != nullptr) {
        UnpackedConv u = UnpackedConv::build(*conv, skip);
        const int64_t c = unpacked_conv_cycles(*conv, u.static_pairs(),
                                               u.static_singles(), costs_);
        profile_.push_back({"conv(unpacked)", c, u.retained_macs()});
        cycles += static_cast<double>(c);
        executed_macs_ += u.retained_macs();
        exec.unpacked = std::move(u);
      } else if (unpack && dw != nullptr) {
        UnpackedDepthwise u = UnpackedDepthwise::build(*dw, skip);
        const int64_t c = unpacked_depthwise_cycles(
            *dw, u.static_pairs(), u.static_singles(), costs_);
        profile_.push_back({"depthwise(unpacked)", c, u.retained_macs()});
        cycles += static_cast<double>(c);
        executed_macs_ += u.retained_macs();
        exec.unpacked_dw = std::move(u);
      } else if (conv != nullptr) {
        // Packed layers execute exactly: static skips cannot remove work
        // from loop kernels (the paper's argument for unpacking).
        exec.packed = PackedWeights::pack(conv->weights, conv->geom.out_c,
                                          conv->geom.patch_size());
        const int64_t c = packed_conv_cycles(*conv, costs_);
        cycles += costs_.layer_dispatch;
        profile_.push_back({"conv(packed)",
                            c + static_cast<int64_t>(costs_.layer_dispatch),
                            conv->geom.macs()});
        cycles += static_cast<double>(c);
        executed_macs_ += conv->geom.macs();
      } else {
        // Packed depthwise fallback: the loop kernel needs no prepacked
        // stream (see packed_depthwise_conv2d).
        const int64_t c = packed_depthwise_cycles(*dw, costs_);
        cycles += costs_.layer_dispatch;
        profile_.push_back({"depthwise(packed)",
                            c + static_cast<int64_t>(costs_.layer_dispatch),
                            dw->macs()});
        cycles += static_cast<double>(c);
        executed_macs_ += dw->macs();
      }
      convs_.push_back(std::move(exec));
      ++ordinal;
    } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
      cycles += costs_.layer_dispatch;
      const int64_t c = pool_cycles(*pool, costs_);
      profile_.push_back({"pool", c, 0});
      cycles += static_cast<double>(c);
    } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
      cycles += costs_.layer_dispatch;
      const int64_t c = avgpool_cycles(*pool, costs_);
      profile_.push_back({"avgpool", c, 0});
      cycles += static_cast<double>(c);
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      cycles += costs_.layer_dispatch;
      packed_fc_[l] = PackedWeights::pack(fc->weights, fc->out_dim, fc->in_dim);
      const int64_t c = dense_cycles(*fc, costs_);
      profile_.push_back({"fc", c, fc->macs()});
      cycles += static_cast<double>(c);
      executed_macs_ += fc->macs();
      out_dim = fc->out_dim;
    } else if (const auto* add = std::get_if<QAdd>(&layer)) {
      // Residual adds run the same requantize-and-add stream on every
      // engine: nothing to unpack, never approximated.
      cycles += costs_.layer_dispatch;
      const int64_t c = qadd_cycles(*add, costs_);
      profile_.push_back({"add", c, 0});
      cycles += static_cast<double>(c);
    }
  }
  cycles += costs_.softmax_per_logit * out_dim;
  profile_.push_back(
      {"softmax", static_cast<int64_t>(costs_.softmax_per_logit * out_dim),
       0});
  total_cycles_ = static_cast<int64_t>(cycles);
}

int UnpackedEngine::unpacked_conv_count() const {
  int n = 0;
  for (const ApproxExec& e : convs_) n += e.is_unpacked ? 1 : 0;
  return n;
}

void UnpackedEngine::run_kernel(int l, int ordinal,
                                std::span<const int8_t> in,
                                std::span<int8_t> out, int batch) const {
  const QLayer& layer = model().layers[static_cast<size_t>(l)];
  if (const auto* fc = std::get_if<QDense>(&layer)) {
    packed_dense(*fc, packed_fc_[static_cast<size_t>(l)], in, out, batch);
    return;
  }
  const ApproxExec& exec = convs_[static_cast<size_t>(ordinal)];
  if (exec.unpacked) {
    exec.unpacked->run(in, out, batch);
  } else if (exec.unpacked_dw) {
    exec.unpacked_dw->run(in, out, batch);
  } else if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    packed_conv2d(*conv, *exec.packed, in, out, batch);
  } else {
    packed_depthwise_conv2d(std::get<QDepthwiseConv2D>(layer), in, out,
                            batch);
  }
}

std::vector<int8_t> UnpackedEngine::run(std::span<const uint8_t> image) const {
  return exec_.run(image, std::bind_front(&UnpackedEngine::run_kernel, this));
}

void UnpackedEngine::run_batch(
    std::span<const std::span<const uint8_t>> images,
    std::vector<std::vector<int8_t>>& logits_out) const {
  check_batch_nonempty(images);
  exec_.run_batch(images, logits_out,
                  std::bind_front(&UnpackedEngine::run_kernel, this));
}

FlashReport UnpackedEngine::flash(const MemoryCostTable& t) const {
  std::vector<int64_t> pairs, singles;
  pairs.reserve(convs_.size());
  for (const ApproxExec& e : convs_) {
    if (e.is_unpacked) {
      const bool is_dw = e.unpacked_dw.has_value();
      pairs.push_back(is_dw ? e.unpacked_dw->static_pairs()
                            : e.unpacked->static_pairs());
      singles.push_back(is_dw ? e.unpacked_dw->static_singles()
                              : e.unpacked->static_singles());
    } else {
      pairs.push_back(-1);  // memory_model: layer stays packed
      singles.push_back(0);
    }
  }
  return unpacked_flash(model(), pairs, singles, t);
}

int64_t UnpackedEngine::ram_bytes() const {
  return model_ram_bytes(model(), /*packed_engine=*/false, memory_);
}

DeployReport UnpackedEngine::deploy(const Dataset& eval,
                                    const BoardSpec& board, int limit,
                                    const std::string& design_name) const {
  DeployReport r = InferenceEngine::deploy(eval, board, limit);
  r.design = design_name;
  return r;
}

}  // namespace ataman
