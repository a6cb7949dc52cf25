// Packed (CMSIS-NN-style) kernels: the exact baseline of the paper [2].
//
// Convolution = q15 im2col + dual-MAC matrix multiply over offline-packed
// weight pairs (SMLAD), exactly the structure of arm_convolve_HWC_q7 /
// arm_nn_mat_mult_kernel_q7_q15. Numerics are bit-exact with the golden
// reference kernels (tests assert this across shapes); only the priced
// instruction stream differs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

// Offline-packed weights for one conv/fc layer: per output channel,
// ceil(patch/2) SMLAD constants (pairs) plus an odd leftover flag.
struct PackedWeights {
  int patch = 0;        // operands per output channel
  int out_c = 0;
  int pairs_per_chan = 0;
  bool has_single = false;
  // [out_c][pairs_per_chan] SMLAD constants; lo lane = even operand.
  std::vector<uint32_t> pair_constants;
  // [out_c] leftover last operand (when patch is odd), as int16 lane.
  std::vector<int16_t> single_weights;

  static PackedWeights pack(std::span<const int8_t> weights, int out_c,
                            int patch);
};

// ---- Lane blocks ------------------------------------------------------
//
// Every packed and unpacked kernel takes a contiguous batch: image b
// lives at in + b * in_elems and out + b * out_elems. The batch is
// folded into the GEMM N dimension in lane-blocks: each weight constant
// is loaded once and multiplied into one independent accumulator per
// lane (the SMLAD dual-MAC idiom widened to SSE/NEON register width),
// and the requantize epilogue runs per block. Numerics are bitwise
// identical for every batch size and block split: int32 accumulation is
// exact, so only the operand walk order changes.
//
// The lane count is a template parameter chosen per block from the
// batch size. A block of two or more images runs kBatchLanes lanes; a
// ragged tail computes its padding lanes over zero-filled columns and
// stores only the live ones, so every inner loop keeps a constant trip
// count. A block holding a single image (a batch of one, or the last
// image of a batch of 4k+1) runs the 1-lane instantiation, so a single
// image never pays for four lanes.

// Images per full accumulator block: four int32 accumulators span one
// 128-bit SSE/NEON register, so the fixed-trip-count lane loops
// auto-vectorize.
inline constexpr int kBatchLanes = 4;

// Calls block(lanes, b0, bn) for each lane-block of `batch` images:
// images [b0, b0 + bn) run with lanes = std::integral_constant<int, L>,
// L = 1 when bn == 1 and kBatchLanes otherwise.
template <typename Block>
void for_each_lane_block(int batch, Block&& block) {
  for (int b0 = 0; b0 < batch; b0 += kBatchLanes) {
    const int bn = std::min(kBatchLanes, batch - b0);
    if (bn == 1) {
      block(std::integral_constant<int, 1>{}, b0, bn);
    } else {
      block(std::integral_constant<int, kBatchLanes>{}, b0, bn);
    }
  }
}

void packed_conv2d(const QConv2D& layer, const PackedWeights& packed,
                   std::span<const int8_t> in, std::span<int8_t> out,
                   int batch);

// Depthwise loop kernel in the arm_depthwise_conv_s8 shape: one shared
// zero-point-corrected q15 patch expansion per output position (taps x
// channels, channel innermost — the [k][k][c] weight order), then a
// scalar per-channel tap loop. Per-channel filters cannot feed the
// dual-MAC path (two weights of one SMLAD would hit two different
// accumulators), which is why no PackedWeights stream exists for it —
// exactly CMSIS-NN's structure, and priced accordingly
// (CortexM33CostTable::packed_depthwise_per_mac). Bit-exact with
// depthwise_conv2d_ref.
void packed_depthwise_conv2d(const QDepthwiseConv2D& layer,
                             std::span<const int8_t> in,
                             std::span<int8_t> out, int batch);

void packed_dense(const QDense& layer, const PackedWeights& packed,
                  std::span<const int8_t> in, std::span<int8_t> out,
                  int batch);

}  // namespace ataman
