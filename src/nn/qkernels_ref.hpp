// Reference (golden) int8 kernels.
//
// Every optimized engine in the repo (CMSIS-like packed,
// unpacked/approximate, generated C) is tested bit-exact against these.
// Conv gathers each output position's patch once into an int16 column of
// (x - zero_point), padding taps as 0, and takes one contiguous dot
// product per output channel; depthwise accumulates tap by tap over the
// contiguous channels of its [tap][channel] weights. A skip mask is
// applied once per call as a weight copy with the skipped operands set to
// 0, so masked and exact runs share one loop. Neither change can alter a
// result: every int32 sum holds the same products as the per-operand
// definition, and none can overflow (|x - zp| <= 255, |w| <= 128, and a
// conv patch is checked to have fewer than 2^16 operands), so the
// summation order does not matter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

// out[pos][oc]; `skip` is nullptr or [out_c * patch] (1 = skip operand).
void conv2d_ref(const QConv2D& layer, std::span<const int8_t> in,
                std::span<int8_t> out, const uint8_t* skip = nullptr);

// Column-restricted conv: fills output columns [ox_begin, ox_end) of
// every row, leaving the rest of `out` untouched. `in`/`out` are still
// the full tensors. The streaming executor (RefEngine::run_incremental)
// uses this to recompute only the columns its splice plan says changed;
// conv2d_ref is the [0, out_w) special case.
void conv2d_ref_cols(const QConv2D& layer, std::span<const int8_t> in,
                     std::span<int8_t> out, int ox_begin, int ox_end,
                     const uint8_t* skip = nullptr);

// out[pos][ch]; `skip` is nullptr or [channels * k*k] indexed
// channel * patch + (ky*k + kx) — SkipMask's depthwise operand order.
void depthwise_conv2d_ref(const QDepthwiseConv2D& layer,
                          std::span<const int8_t> in, std::span<int8_t> out,
                          const uint8_t* skip = nullptr);

// Column-restricted depthwise; contract mirrors conv2d_ref_cols.
void depthwise_conv2d_ref_cols(const QDepthwiseConv2D& layer,
                               std::span<const int8_t> in,
                               std::span<int8_t> out, int ox_begin, int ox_end,
                               const uint8_t* skip = nullptr);

void maxpool_ref(const QMaxPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out);

// Int8 average pool: window sum, round-half-away-from-zero divide
// (TFLite-Micro semantics; in/out quantization params are shared).
void avgpool_ref(const QAvgPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out);

void dense_ref(const QDense& layer, std::span<const int8_t> in,
               std::span<int8_t> out);

// Residual add: each input requantized to the output scale with its own
// fixed-point multiplier, then integer add + zero point + clamp. Both
// inputs and the output have identical shape.
void qadd_ref(const QAdd& layer, std::span<const int8_t> in_a,
              std::span<const int8_t> in_b, std::span<int8_t> out);

// Dispatch any QLayer through its reference kernel: sizes `out` from the
// layer descriptor and runs the matching *_ref above (`skip` applies to
// approximable layers only). The one layer-walk helper every generic
// executor (RefEngine, the DSE prefix cache, engine constructors) shares.
void run_layer_ref(const QLayer& layer, std::span<const int8_t> in,
                   std::vector<int8_t>& out, const uint8_t* skip = nullptr);

// DAG-aware dispatch: same contract but takes the full operand list in
// QModel::inputs_of order (QAdd reads two tensors; every other layer
// uses inputs[0]). run_layer_ref is the single-input shorthand.
void run_layer_ref_multi(const QLayer& layer,
                         const std::vector<std::span<const int8_t>>& inputs,
                         std::vector<int8_t>& out,
                         const uint8_t* skip = nullptr);

}  // namespace ataman
