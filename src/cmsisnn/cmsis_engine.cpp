#include "src/cmsisnn/cmsis_engine.hpp"

#include <functional>

namespace ataman {

CmsisEngine::CmsisEngine(const QModel* model, CortexM33CostTable costs,
                         MemoryCostTable memory)
    : InferenceEngine(model, "cmsis-nn"),
      memory_(memory),
      exec_(*model),
      packed_(model->layers.size()),
      profile_(packed_layer_profile(*model, costs)),
      total_cycles_(sum_profile_cycles(profile_)) {
  // Offline weight packing for conv and fc. Depthwise runs the scalar
  // loop kernel and needs no packed stream (see packed_depthwise_conv2d).
  for (size_t l = 0; l < packed_.size(); ++l) {
    const QLayer& layer = this->model().layers[l];
    if (const auto* conv = std::get_if<QConv2D>(&layer)) {
      packed_[l] = PackedWeights::pack(conv->weights, conv->geom.out_c,
                                       conv->geom.patch_size());
    } else if (const auto* fc = std::get_if<QDense>(&layer)) {
      packed_[l] = PackedWeights::pack(fc->weights, fc->out_dim, fc->in_dim);
    }
  }
}

void CmsisEngine::run_kernel(int l, int /*ordinal*/,
                             std::span<const int8_t> in, std::span<int8_t> out,
                             int batch) const {
  const QLayer& layer = model().layers[static_cast<size_t>(l)];
  const PackedWeights& packed = packed_[static_cast<size_t>(l)];
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    packed_conv2d(*conv, packed, in, out, batch);
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    packed_depthwise_conv2d(*dw, in, out, batch);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    packed_dense(*fc, packed, in, out, batch);
  }
}

std::vector<int8_t> CmsisEngine::run(std::span<const uint8_t> image) const {
  return exec_.run(image, std::bind_front(&CmsisEngine::run_kernel, this));
}

void CmsisEngine::run_batch(
    std::span<const std::span<const uint8_t>> images,
    std::vector<std::vector<int8_t>>& logits_out) const {
  check_batch_nonempty(images);
  exec_.run_batch(images, logits_out,
                  std::bind_front(&CmsisEngine::run_kernel, this));
}

int64_t CmsisEngine::flash_bytes() const {
  return packed_flash(model(), memory_).total_bytes;
}

int64_t CmsisEngine::ram_bytes() const {
  return model_ram_bytes(model(), /*packed_engine=*/true, memory_);
}

}  // namespace ataman
