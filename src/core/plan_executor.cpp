#include "src/core/plan_executor.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/nn/qkernels_ref.hpp"

namespace ataman {

void quantize_pixels(const QuantParams& input, std::span<const uint8_t> pixels,
                     std::span<int8_t> out) {
  check(out.size() == pixels.size(), "quantize_pixels: size mismatch");
  for (size_t i = 0; i < pixels.size(); ++i) {
    // input scale is 1/255 with zero_point -128: q = pixel - 128 exactly.
    out[i] = input.quantize(static_cast<float>(pixels[i]) / 255.0f);
  }
}

// One call's activation storage: every plan slot holds `batch`
// contiguous per-image blocks, allocated on first use. The plan
// guarantees a step's output slot never aliases a live input, and on a
// chain the slots are the historical ping-pong pair.
class PlanExecutor::Arena {
 public:
  Arena(const ActivationPlan& plan, int batch)
      : plan_(plan), batch_(batch), slots_(plan.slot_elems.size()) {}

  int batch() const { return batch_; }

  // All `batch` images of tensor t.
  std::span<int8_t> tensor(int t) {
    const ActivationPlan::Tensor& info =
        plan_.tensors[static_cast<size_t>(t)];
    std::vector<int8_t>& slot = slots_[static_cast<size_t>(info.slot)];
    if (slot.empty())
      slot.resize(static_cast<size_t>(
                      plan_.slot_elems[static_cast<size_t>(info.slot)]) *
                  static_cast<size_t>(batch_));
    return {slot.data(),
            static_cast<size_t>(info.elems) * static_cast<size_t>(batch_)};
  }

 private:
  const ActivationPlan& plan_;
  int batch_;
  std::vector<std::vector<int8_t>> slots_;
};

PlanExecutor::PlanExecutor(const QModel& model)
    : model_(&model), plan_(plan_activations(model)) {}

std::vector<int8_t> PlanExecutor::run(std::span<const uint8_t> image,
                                      const Kernel& kernel) const {
  std::vector<std::vector<int8_t>> logits;
  run_batch(std::span(&image, 1), logits, kernel);
  return std::move(logits.front());
}

void PlanExecutor::run_batch(std::span<const std::span<const uint8_t>> images,
                             std::vector<std::vector<int8_t>>& logits_out,
                             const Kernel& kernel) const {
  const int batch = static_cast<int>(images.size());
  Arena arena(plan_, batch);
  const std::span<int8_t> entry = arena.tensor(0);
  const size_t in_elems = static_cast<size_t>(model_->tensor_elems(0));
  for (int b = 0; b < batch; ++b) {
    const std::span<const uint8_t> image = images[static_cast<size_t>(b)];
    check(image.size() == in_elems, "input image size mismatch");
    quantize_pixels(model_->input, image,
                    entry.subspan(static_cast<size_t>(b) * in_elems, in_elems));
  }
  walk(0, arena, kernel);

  const int layer_count = static_cast<int>(model_->layers.size());
  const std::span<const int8_t> out = arena.tensor(layer_count);
  const size_t out_elems = out.size() / static_cast<size_t>(batch);
  logits_out.assign(static_cast<size_t>(batch), {});
  for (int b = 0; b < batch; ++b) {
    const auto sub = out.subspan(static_cast<size_t>(b) * out_elems, out_elems);
    logits_out[static_cast<size_t>(b)].assign(sub.begin(), sub.end());
  }
}

std::vector<int8_t> PlanExecutor::run_from(int layer_begin,
                                           std::span<const int8_t> activations,
                                           const Kernel& kernel) const {
  const int layer_count = static_cast<int>(model_->layers.size());
  check(layer_begin >= 0 && layer_begin <= layer_count,
        "run_from layer index out of range");
  check(model_->linear_boundary(layer_begin),
        "run_from must resume at a linear boundary of the DAG (layer " +
            std::to_string(layer_begin) + " is crossed by a skip edge)");
  check(static_cast<int64_t>(activations.size()) ==
            model_->tensor_elems(layer_begin),
        "run_from activation size mismatch at layer " +
            std::to_string(layer_begin));
  Arena arena(plan_, 1);
  std::ranges::copy(activations, arena.tensor(layer_begin).begin());
  walk(layer_begin, arena, kernel);
  const std::span<const int8_t> out = arena.tensor(layer_count);
  return {out.begin(), out.end()};
}

void PlanExecutor::walk(int layer_begin, Arena& arena,
                        const Kernel& kernel) const {
  const QModel& m = *model_;
  const int batch = arena.batch();
  int ordinal = 0;
  for (int l = 0; l < layer_begin; ++l)
    ordinal += describe_layer(m.layers[static_cast<size_t>(l)]).skippable;

  const int layer_count = static_cast<int>(m.layers.size());
  for (int l = layer_begin; l < layer_count; ++l) {
    const QLayer& layer = m.layers[static_cast<size_t>(l)];
    const std::vector<int> ins = m.inputs_of(l);
    const std::span<const int8_t> in = arena.tensor(ins[0]);
    const std::span<int8_t> out = arena.tensor(l + 1);
    if (describe_layer(layer).skippable) {
      kernel(l, ordinal++, in, out, batch);
      continue;
    }
    if (std::holds_alternative<QDense>(layer)) {
      kernel(l, -1, in, out, batch);
      continue;
    }
    // Pools and adds: no weights to amortize, so each image runs the
    // reference kernel on its own block.
    const std::span<const int8_t> in_b =
        ins.size() > 1 ? std::span<const int8_t>(arena.tensor(ins[1]))
                       : std::span<const int8_t>();
    const size_t in_elems = in.size() / static_cast<size_t>(batch);
    const size_t out_elems = out.size() / static_cast<size_t>(batch);
    for (int b = 0; b < batch; ++b) {
      const size_t i = static_cast<size_t>(b);
      run_layer_ref(layer, in.subspan(i * in_elems, in_elems),
                    in_b.empty() ? in_b
                                 : in_b.subspan(i * in_elems, in_elems),
                    out.subspan(i * out_elems, out_elems));
    }
  }
}

}  // namespace ataman
