// Skip mask: which static approximable products are omitted.
//
// The paper's approximation (§II-C) removes individual products a_i * w_i
// from each output channel's accumulation. A skipped product is a *static*
// (approximable layer, channel, filter operand index) triple. Approximable
// layers are the convolution kinds — plain conv and depthwise conv — in
// layer order; `ordinal` below always means the n-th approximable layer
// (QModel::approx_layer_index). The operand index is
//   * plain conv:     the (ky, kx, in_c)-flattened position within the
//                     output channel's filter (the im2col order), and
//   * depthwise conv: the (ky, kx)-flattened tap position within the
//                     channel's own k×k filter (dw_weight_index maps it
//                     into the [k][k][c] weight tensor).
// Skipping removes that operand at every output spatial position, exactly
// like deleting its instruction from generated code.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/quant/qtypes.hpp"

namespace ataman {

struct SkipMask {
  // masks[approx_ordinal][channel * patch + operand] == 1 -> skip.
  // An empty per-layer vector means "layer untouched".
  std::vector<std::vector<uint8_t>> masks;

  bool empty() const;
  // The skip array of approximable layer `ordinal`, or nullptr when the
  // layer is untouched (no entry, or an empty one).
  const uint8_t* layer_skip(int ordinal) const {
    return ordinal < static_cast<int>(masks.size()) &&
                   !masks[static_cast<size_t>(ordinal)].empty()
               ? masks[static_cast<size_t>(ordinal)].data()
               : nullptr;
  }
  // Total number of skipped static operands.
  int64_t skipped_static_operands() const;

  // Dynamic (per-inference) MACs removed from `model` by this mask:
  // each skipped static operand saves out_h*out_w MACs in its layer.
  int64_t skipped_macs(const QModel& model) const;

  // Validate dimensions against `model`; throws on mismatch.
  void validate(const QModel& model) const;

  // All-zeros mask shaped for `model`.
  static SkipMask none(const QModel& model);
};

// Static (per-layer) unpacking statistics induced by a skip mask: the
// retained operands of each channel, re-paired into SMLAD pairs and at
// most one leftover single, as UnpackedConv/UnpackedDepthwise emit them.
struct UnpackStats {
  std::vector<int64_t> static_pairs;    // by approximable-layer ordinal
  std::vector<int64_t> static_singles;  // by approximable-layer ordinal
  int64_t retained_conv_macs = 0;       // dynamic, per inference
};

UnpackStats compute_unpack_stats(const QModel& model, const SkipMask& mask);

// A copy of `model` with every skipped conv/depthwise weight set to zero.
// The quantized product (a - zp) * w vanishes for w == 0, so running the
// masked copy through any exact engine is numerically identical to
// skip-aware execution, which is what the DSE uses for its thousands of
// accuracy evaluations.
QModel apply_skip_mask(const QModel& model, const SkipMask& mask);

// Zero the weights of one approximable layer in place according to its
// per-layer mask.
void zero_skipped_weights(QLayer& layer, const std::vector<uint8_t>& mask);

// Zero in `weights` (the layer's weight tensor or a copy of it) every
// operand the per-layer mask `skip` marks. The one mask -> weight index
// mapping, shared by apply_skip_mask, the DSE prefix cache and the
// reference kernels.
void zero_skipped_weights(const QConv2D& conv, const uint8_t* skip,
                          std::span<int8_t> weights);
void zero_skipped_weights(const QDepthwiseConv2D& dw, const uint8_t* skip,
                          std::span<int8_t> weights);

}  // namespace ataman
