#include "src/unpack/unpacked_engine.hpp"

#include <algorithm>
#include <functional>

#include "src/common/error.hpp"

namespace ataman {

UnpackedEngine::UnpackedEngine(const QModel* model, const SkipMask* mask,
                               CortexM33CostTable costs,
                               MemoryCostTable memory,
                               const std::vector<uint8_t>* unpack_selection)
    : InferenceEngine(model, "ataman"),
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
  for (size_t l = 0; l < packed_fc_.size(); ++l) {
    const QLayer& layer = this->model().layers[l];
    if (const auto* fc = std::get_if<QDense>(&layer)) {
      packed_fc_[l] = PackedWeights::pack(fc->weights, fc->out_dim, fc->in_dim);
      continue;
    }
    const auto* conv = std::get_if<QConv2D>(&layer);
    const auto* dw = std::get_if<QDepthwiseConv2D>(&layer);
    if (conv == nullptr && dw == nullptr) continue;
    const bool unpack =
        unpack_selection == nullptr ||
        (*unpack_selection)[static_cast<size_t>(ordinal)] != 0;
    const uint8_t* skip =
        mask != nullptr ? mask->layer_skip(ordinal) : nullptr;
    ApproxExec exec;
    int64_t pairs = -1, singles = 0;  // -1: layer stays packed
    if (unpack && conv != nullptr) {
      exec.unpacked = UnpackedConv::build(*conv, skip);
      pairs = exec.unpacked->static_pairs();
      singles = exec.unpacked->static_singles();
    } else if (unpack) {
      exec.unpacked_dw = UnpackedDepthwise::build(*dw, skip);
      pairs = exec.unpacked_dw->static_pairs();
      singles = exec.unpacked_dw->static_singles();
    } else if (conv != nullptr) {
      // Packed layers execute exactly: static skips cannot remove work
      // from loop kernels (the paper's argument for unpacking). The
      // packed depthwise loop kernel needs no prepacked stream.
      exec.packed = PackedWeights::pack(conv->weights, conv->geom.out_c,
                                        conv->geom.patch_size());
    }
    convs_.push_back(std::move(exec));
    static_pairs_.push_back(pairs);
    static_singles_.push_back(singles);
    ++ordinal;
  }
  profile_ = deployment_profile(this->model(), static_pairs_, static_singles_,
                                costs);
  total_cycles_ = sum_profile_cycles(profile_);
  for (const LayerProfile& row : profile_) executed_macs_ += row.macs;
}

int UnpackedEngine::unpacked_conv_count() const {
  return static_cast<int>(std::count_if(static_pairs_.begin(),
                                        static_pairs_.end(),
                                        [](int64_t p) { return p >= 0; }));
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
  return unpacked_flash(model(), static_pairs_, static_singles_, t);
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
