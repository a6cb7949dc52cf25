#include "src/unpack/unpacked_layer.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/cmsisnn/packed_kernels.hpp"  // for_each_lane_block
#include "src/cmsisnn/smlad.hpp"

namespace ataman {

int64_t UnpackedConv::static_pairs() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels)
    total += static_cast<int64_t>(ch.pairs.size());
  return total;
}

int64_t UnpackedConv::static_singles() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels) total += ch.has_single ? 1 : 0;
  return total;
}

int64_t UnpackedConv::retained_macs() const {
  int64_t static_ops = 0;
  for (const ChannelProgram& ch : channels) static_ops += ch.retained_ops();
  return static_ops * geom.positions();
}

namespace {

// Offline re-pairing shared by conv and depthwise program construction:
// collect retained operand indices, then emit one SMLAD per surviving
// pair and an SMLABB for the odd leftover. `weight_at(i)` maps an
// operand index into the layer's weight tensor.
template <typename WeightAt>
ChannelProgram build_channel_program(int32_t bias, int patch,
                                     const uint8_t* sk, WeightAt weight_at) {
  ChannelProgram prog;
  prog.bias = bias;
  std::vector<uint32_t> retained;
  retained.reserve(static_cast<size_t>(patch));
  for (int i = 0; i < patch; ++i) {
    if (sk == nullptr || !sk[i]) retained.push_back(static_cast<uint32_t>(i));
  }
  const size_t n_pairs = retained.size() / 2;
  prog.pairs.reserve(n_pairs);
  for (size_t p = 0; p < n_pairs; ++p) {
    const uint32_t ia = retained[2 * p];
    const uint32_t ib = retained[2 * p + 1];
    prog.pairs.push_back(
        {pack_weight_pair(/*hi=*/weight_at(ib), /*lo=*/weight_at(ia)), ia,
         ib});
  }
  if (retained.size() % 2 != 0) {
    prog.has_single = true;
    prog.single = {static_cast<int16_t>(weight_at(retained.back())),
                   retained.back()};
  }
  return prog;
}

// Lane-block bodies (see packed_kernels.hpp): images [b0, b0 + bn) of
// the contiguous batch in L lanes over the lane-major q15 column buffer
// `cols` (kBatchLanes lanes long).
//
// Conv lanes are cols[j * patch + operand]: each program's hardwired
// weight constant is fetched once and multiplied into one accumulator
// per lane. The host interpreter materializes the zero-point-corrected
// patch purely as a host-speed optimization; the *priced* instruction
// stream (cost_model::unpacked_op_cycles) models direct activation
// loads with no such buffer, and the numerics are identical.
template <int L>
void unpacked_conv_block(const UnpackedConv& u, std::span<const int8_t> in,
                         std::span<int8_t> out, int b0, int bn,
                         int16_t* cols) {
  const ConvGeom& g = u.geom;
  const size_t in_elems = static_cast<size_t>(g.in_h) * g.in_w * g.in_c;
  const size_t out_elems = static_cast<size_t>(g.positions()) * g.out_c;
  const int oh = g.out_h(), ow = g.out_w();
  const size_t patch = static_cast<size_t>(g.patch_size());
  const int32_t zp = u.in_q.zero_point;
  if (bn < L) std::fill_n(cols, L * patch, int16_t{0});
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int j = 0; j < bn; ++j) {
        const int8_t* img =
            in.data() + static_cast<size_t>(b0 + j) * in_elems;
        int16_t* lane = cols + static_cast<size_t>(j) * patch;
        int idx = 0;
        for (int ky = 0; ky < g.kernel; ++ky) {
          const int iy = oy * g.stride - g.pad + ky;
          for (int kx = 0; kx < g.kernel; ++kx) {
            const int ix = ox * g.stride - g.pad + kx;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            const int8_t* src =
                inside ? img + (static_cast<size_t>(iy) * g.in_w + ix) *
                                   g.in_c
                       : nullptr;
            for (int c = 0; c < g.in_c; ++c, ++idx)
              lane[idx] =
                  static_cast<int16_t>((inside ? src[c] : zp) - zp);
          }
        }
      }
      const size_t orow_off =
          (static_cast<size_t>(oy) * ow + ox) * g.out_c;
      for (int oc = 0; oc < g.out_c; ++oc) {
        const ChannelProgram& prog = u.channels[static_cast<size_t>(oc)];
        int32_t acc[L];
        for (int j = 0; j < L; ++j) acc[j] = prog.bias;
        for (const MacPairOp& op : prog.pairs) {
          for (int j = 0; j < L; ++j) {
            const int16_t* lane =
                cols + static_cast<size_t>(j) * patch;
            acc[j] = smlad(op.weight_const,
                           pack_q15_pair(lane[op.operand_b],
                                         lane[op.operand_a]),
                           acc[j]);
          }
        }
        if (prog.has_single) {
          const uint32_t wlast = pack_q15_pair(0, prog.single.weight);
          for (int j = 0; j < L; ++j) {
            const int16_t* lane =
                cols + static_cast<size_t>(j) * patch;
            acc[j] = smlabb(
                wlast, pack_q15_pair(0, lane[prog.single.operand]), acc[j]);
          }
        }
        for (int j = 0; j < bn; ++j) {
          const int32_t scaled =
              multiply_by_quantized_multiplier(acc[j], prog.requant) +
              u.out_q.zero_point;
          out[static_cast<size_t>(b0 + j) * out_elems + orow_off + oc] =
              static_cast<int8_t>(std::clamp(scaled, u.act_min, u.act_max));
        }
      }
    }
  }
}

// Depthwise lanes are cols[j * patch * c + tap * c + ch]: the shared
// per-position expansion of each image; each channel program then
// streams once across all lanes.
template <int L>
void unpacked_depthwise_block(const UnpackedDepthwise& u,
                              std::span<const int8_t> in, std::span<int8_t> out,
                              int b0, int bn, int16_t* cols) {
  const int c = u.channel_count;
  const size_t in_elems = static_cast<size_t>(u.in_h) * u.in_w * c;
  const size_t out_elems = static_cast<size_t>(u.positions()) * c;
  const int oh = u.out_h(), ow = u.out_w();
  const int patch = u.kernel * u.kernel;
  const int32_t zp = u.in_q.zero_point;
  const size_t lane_stride = static_cast<size_t>(patch) * c;
  if (bn < L) std::fill_n(cols, L * lane_stride, int16_t{0});
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int j = 0; j < bn; ++j) {
        const int8_t* img =
            in.data() + static_cast<size_t>(b0 + j) * in_elems;
        int16_t* lane = cols + static_cast<size_t>(j) * lane_stride;
        int p = 0;
        for (int ky = 0; ky < u.kernel; ++ky) {
          const int iy = oy * u.stride - u.pad + ky;
          for (int kx = 0; kx < u.kernel; ++kx, ++p) {
            const int ix = ox * u.stride - u.pad + kx;
            const bool inside =
                iy >= 0 && iy < u.in_h && ix >= 0 && ix < u.in_w;
            const int8_t* src =
                inside ? img + (static_cast<size_t>(iy) * u.in_w + ix) * c
                       : nullptr;
            int16_t* dst = lane + static_cast<size_t>(p) * c;
            for (int i = 0; i < c; ++i)
              dst[i] = static_cast<int16_t>((inside ? src[i] : zp) - zp);
          }
        }
      }
      const size_t orow_off = (static_cast<size_t>(oy) * ow + ox) * c;
      for (int ch = 0; ch < c; ++ch) {
        const ChannelProgram& prog = u.channels[static_cast<size_t>(ch)];
        int32_t acc[L];
        for (int j = 0; j < L; ++j) acc[j] = prog.bias;
        for (const MacPairOp& op : prog.pairs) {
          const size_t off_a =
              static_cast<size_t>(op.operand_a) * c + ch;
          const size_t off_b =
              static_cast<size_t>(op.operand_b) * c + ch;
          for (int j = 0; j < L; ++j) {
            const int16_t* lane =
                cols + static_cast<size_t>(j) * lane_stride;
            acc[j] = smlad(op.weight_const,
                           pack_q15_pair(lane[off_b], lane[off_a]),
                           acc[j]);
          }
        }
        if (prog.has_single) {
          const uint32_t wlast = pack_q15_pair(0, prog.single.weight);
          const size_t off =
              static_cast<size_t>(prog.single.operand) * c + ch;
          for (int j = 0; j < L; ++j) {
            const int16_t* lane =
                cols + static_cast<size_t>(j) * lane_stride;
            acc[j] = smlabb(wlast, pack_q15_pair(0, lane[off]), acc[j]);
          }
        }
        for (int j = 0; j < bn; ++j) {
          const int32_t scaled =
              multiply_by_quantized_multiplier(acc[j], prog.requant) +
              u.out_q.zero_point;
          out[static_cast<size_t>(b0 + j) * out_elems + orow_off + ch] =
              static_cast<int8_t>(std::clamp(scaled, u.act_min, u.act_max));
        }
      }
    }
  }
}

}  // namespace

UnpackedConv UnpackedConv::build(const QConv2D& layer, const uint8_t* skip) {
  UnpackedConv u;
  u.geom = layer.geom;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;

  const int patch = layer.geom.patch_size();
  u.channels.resize(static_cast<size_t>(layer.geom.out_c));
  for (int oc = 0; oc < layer.geom.out_c; ++oc) {
    const int8_t* w =
        layer.weights.data() + static_cast<size_t>(oc) * patch;
    const uint8_t* sk =
        skip != nullptr ? skip + static_cast<size_t>(oc) * patch : nullptr;
    ChannelProgram& prog = u.channels[static_cast<size_t>(oc)];
    prog = build_channel_program(layer.bias[static_cast<size_t>(oc)], patch,
                                 sk, [&](uint32_t i) { return w[i]; });
    // Per-output-channel requant constant, baked like the bias.
    prog.requant = layer.requant[static_cast<size_t>(oc)];
  }
  return u;
}

void UnpackedConv::run(std::span<const int8_t> in, std::span<int8_t> out,
                       int batch) const {
  check(batch >= 1, "UnpackedConv::run: batch must be >= 1");
  check(in.size() == static_cast<size_t>(geom.in_h) * geom.in_w * geom.in_c *
                         static_cast<size_t>(batch),
        "unpacked conv input size mismatch");
  check(out.size() == static_cast<size_t>(geom.positions()) * geom.out_c *
                          static_cast<size_t>(batch),
        "unpacked conv output size mismatch");
  std::vector<int16_t> cols(static_cast<size_t>(kBatchLanes) *
                            static_cast<size_t>(geom.patch_size()));
  for_each_lane_block(batch, [&](auto lanes, int b0, int bn) {
    unpacked_conv_block<decltype(lanes)::value>(*this, in, out, b0, bn,
                                                cols.data());
  });
}

int64_t UnpackedDepthwise::static_pairs() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels)
    total += static_cast<int64_t>(ch.pairs.size());
  return total;
}

int64_t UnpackedDepthwise::static_singles() const {
  int64_t total = 0;
  for (const ChannelProgram& ch : channels) total += ch.has_single ? 1 : 0;
  return total;
}

int64_t UnpackedDepthwise::retained_macs() const {
  int64_t static_ops = 0;
  for (const ChannelProgram& ch : channels) static_ops += ch.retained_ops();
  return static_ops * positions();
}

UnpackedDepthwise UnpackedDepthwise::build(const QDepthwiseConv2D& layer,
                                           const uint8_t* skip) {
  UnpackedDepthwise u;
  u.in_h = layer.in_h;
  u.in_w = layer.in_w;
  u.channel_count = layer.channels;
  u.kernel = layer.kernel;
  u.stride = layer.stride;
  u.pad = layer.pad;
  u.in_q = layer.in;
  u.out_q = layer.out;
  u.act_min = layer.act_min;
  u.act_max = layer.act_max;

  const int patch = layer.patch_size();
  u.channels.resize(static_cast<size_t>(layer.channels));
  for (int ch = 0; ch < layer.channels; ++ch) {
    const uint8_t* sk =
        skip != nullptr ? skip + static_cast<size_t>(ch) * patch : nullptr;
    ChannelProgram& prog = u.channels[static_cast<size_t>(ch)];
    prog = build_channel_program(
        layer.bias[static_cast<size_t>(ch)], patch, sk, [&](uint32_t p) {
          return layer.weights[dw_weight_index(ch, static_cast<int>(p),
                                               layer.channels)];
        });
    prog.requant = layer.requant[static_cast<size_t>(ch)];
  }
  return u;
}

void UnpackedDepthwise::run(std::span<const int8_t> in,
                            std::span<int8_t> out, int batch) const {
  check(batch >= 1, "UnpackedDepthwise::run: batch must be >= 1");
  check(in.size() == static_cast<size_t>(in_h) * in_w * channel_count *
                         static_cast<size_t>(batch),
        "unpacked depthwise input size mismatch");
  check(out.size() == static_cast<size_t>(positions()) * channel_count *
                          static_cast<size_t>(batch),
        "unpacked depthwise output size mismatch");
  std::vector<int16_t> cols(static_cast<size_t>(kBatchLanes) * kernel *
                            kernel * channel_count);
  for_each_lane_block(batch, [&](auto lanes, int b0, int bn) {
    unpacked_depthwise_block<decltype(lanes)::value>(*this, in, out, b0, bn,
                                                     cols.data());
  });
}

}  // namespace ataman
