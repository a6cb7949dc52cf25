#include "src/nn/qkernels_ref.hpp"

#include "src/common/error.hpp"
#include "src/common/math_util.hpp"
#include "src/nn/skip_mask.hpp"

namespace ataman {

namespace {

// The layer's weights, or with a mask a copy of them with every skipped
// operand set to 0. A skipped product and a product with a zero weight
// add the same nothing to the sum, so masked and exact runs share one
// inner loop.
template <typename Layer>
const int8_t* skip_zeroed_weights(const Layer& layer, const uint8_t* skip,
                                  std::vector<int8_t>& scratch) {
  if (skip == nullptr) return layer.weights.data();
  scratch = layer.weights;
  zero_skipped_weights(layer, skip, scratch);
  return scratch.data();
}

}  // namespace

void conv2d_ref(const QConv2D& layer, std::span<const int8_t> in,
                std::span<int8_t> out, const uint8_t* skip) {
  conv2d_ref_cols(layer, in, out, 0, layer.geom.out_w(), skip);
}

void conv2d_ref_cols(const QConv2D& layer, std::span<const int8_t> in,
                     std::span<int8_t> out, int ox_begin, int ox_end,
                     const uint8_t* skip) {
  const ConvGeom& g = layer.geom;
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(g.in_h) * g.in_w * g.in_c,
        "conv input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(g.positions()) * g.out_c,
        "conv output size mismatch");
  check(ox_begin >= 0 && ox_end <= g.out_w() && ox_begin <= ox_end,
        "conv column range out of bounds");
  const int patch = g.patch_size();
  const int32_t zp = layer.in.zero_point;
  // The column holds x - zp in int16 and the dot product sums in int32:
  // |x - zp| <= 255, |w| <= 128 and patch < 2^16 keep every partial sum
  // below 2^31, so the result cannot depend on the summation order.
  check(zp >= -128 && zp <= 127, "conv input zero point outside int8 range");
  check(patch < (1 << 16), "conv patch too large for an int32 accumulator");

  std::vector<int8_t> masked;
  const int8_t* weights = skip_zeroed_weights(layer, skip, masked);
  std::vector<int16_t> col(static_cast<size_t>(patch));
  const int oh = g.out_h(), ow = g.out_w();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = ox_begin; ox < ox_end; ++ox) {
      // Gather the zero-point-corrected patch once, in weight order
      // [ky][kx][in_c]; padding taps read the zero point, i.e. real 0.
      int16_t* c = col.data();
      for (int ky = 0; ky < g.kernel; ++ky) {
        const int iy = oy * g.stride - g.pad + ky;
        for (int kx = 0; kx < g.kernel; ++kx, c += g.in_c) {
          const int ix = ox * g.stride - g.pad + kx;
          if (iy < 0 || iy >= g.in_h || ix < 0 || ix >= g.in_w) {
            std::fill_n(c, g.in_c, int16_t{0});
            continue;
          }
          const int8_t* px =
              in.data() + (static_cast<size_t>(iy) * g.in_w + ix) * g.in_c;
          for (int ch = 0; ch < g.in_c; ++ch)
            c[ch] = static_cast<int16_t>(px[ch] - zp);
        }
      }
      int8_t* orow = out.data() + (static_cast<size_t>(oy) * ow + ox) * g.out_c;
      const int8_t* w = weights;
      for (int oc = 0; oc < g.out_c; ++oc, w += patch) {
        int32_t acc = 0;
        for (int i = 0; i < patch; ++i)
          acc += static_cast<int32_t>(col[static_cast<size_t>(i)]) * w[i];
        acc += layer.bias[static_cast<size_t>(oc)];
        const int32_t scaled =
            multiply_by_quantized_multiplier(
                acc, layer.requant[static_cast<size_t>(oc)]) +
            layer.out.zero_point;
        orow[oc] = static_cast<int8_t>(
            std::clamp(scaled, layer.act_min, layer.act_max));
      }
    }
  }
}

void depthwise_conv2d_ref(const QDepthwiseConv2D& layer,
                          std::span<const int8_t> in, std::span<int8_t> out,
                          const uint8_t* skip) {
  depthwise_conv2d_ref_cols(layer, in, out, 0, layer.out_w(), skip);
}

void depthwise_conv2d_ref_cols(const QDepthwiseConv2D& layer,
                               std::span<const int8_t> in,
                               std::span<int8_t> out, int ox_begin, int ox_end,
                               const uint8_t* skip) {
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * layer.channels,
        "depthwise input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(layer.positions()) * layer.channels,
        "depthwise output size mismatch");
  check(ox_begin >= 0 && ox_end <= layer.out_w() && ox_begin <= ox_end,
        "depthwise column range out of bounds");
  const int channels = layer.channels;
  const int32_t zp = layer.in.zero_point;

  std::vector<int8_t> masked;
  const int8_t* weights = skip_zeroed_weights(layer, skip, masked);
  std::vector<int32_t> acc(static_cast<size_t>(channels));
  const int oh = layer.out_h(), ow = layer.out_w();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = ox_begin; ox < ox_end; ++ox) {
      std::copy_n(layer.bias.begin(), channels, acc.begin());
      // Tap by tap over contiguous channels. Padding taps read the zero
      // point, i.e. real 0, and add nothing.
      for (int ky = 0; ky < layer.kernel; ++ky) {
        const int iy = oy * layer.stride - layer.pad + ky;
        if (iy < 0 || iy >= layer.in_h) continue;
        for (int kx = 0; kx < layer.kernel; ++kx) {
          const int ix = ox * layer.stride - layer.pad + kx;
          if (ix < 0 || ix >= layer.in_w) continue;
          const int8_t* px =
              in.data() +
              (static_cast<size_t>(iy) * layer.in_w + ix) * channels;
          const int8_t* w =
              weights + dw_weight_index(0, ky * layer.kernel + kx, channels);
          for (int ch = 0; ch < channels; ++ch)
            acc[static_cast<size_t>(ch)] +=
                (static_cast<int32_t>(px[ch]) - zp) * w[ch];
        }
      }
      int8_t* orow =
          out.data() + (static_cast<size_t>(oy) * ow + ox) * channels;
      for (int ch = 0; ch < channels; ++ch) {
        const int32_t scaled =
            multiply_by_quantized_multiplier(
                acc[static_cast<size_t>(ch)],
                layer.requant[static_cast<size_t>(ch)]) +
            layer.out.zero_point;
        orow[ch] = static_cast<int8_t>(
            std::clamp(scaled, layer.act_min, layer.act_max));
      }
    }
  }
}

void maxpool_ref(const QMaxPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out) {
  const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
  validate_pool_geometry(layer.in_h, layer.in_w, layer.kernel, layer.stride,
                         "maxpool_ref");
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * c,
        "pool input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(oh) * ow * c,
        "pool output size mismatch");
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int ch = 0; ch < c; ++ch) {
        // Covering geometry is validated above, so every tap is inside.
        int8_t best = -128;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride + ky;
          for (int kx = 0; kx < layer.kernel; ++kx) {
            const int ix = ox * layer.stride + kx;
            best = std::max(
                best, in[(static_cast<size_t>(iy) * layer.in_w + ix) * c + ch]);
          }
        }
        out[(static_cast<size_t>(oy) * ow + ox) * c + ch] = best;
      }
    }
  }
}

void avgpool_ref(const QAvgPool& layer, std::span<const int8_t> in,
                 std::span<int8_t> out) {
  const int oh = layer.out_h(), ow = layer.out_w(), c = layer.channels;
  validate_pool_geometry(layer.in_h, layer.in_w, layer.kernel, layer.stride,
                         "avgpool_ref");
  check(static_cast<int64_t>(in.size()) ==
            static_cast<int64_t>(layer.in_h) * layer.in_w * c,
        "pool input size mismatch");
  check(static_cast<int64_t>(out.size()) ==
            static_cast<int64_t>(oh) * ow * c,
        "pool output size mismatch");
  const int32_t count = layer.kernel * layer.kernel;
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int ch = 0; ch < c; ++ch) {
        int32_t sum = 0;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride + ky;
          for (int kx = 0; kx < layer.kernel; ++kx) {
            const int ix = ox * layer.stride + kx;
            sum += in[(static_cast<size_t>(iy) * layer.in_w + ix) * c + ch];
          }
        }
        // Round half away from zero (TFLite AVERAGE_POOL_2D).
        const int32_t avg =
            sum >= 0 ? (sum + count / 2) / count : (sum - count / 2) / count;
        out[(static_cast<size_t>(oy) * ow + ox) * c + ch] =
            saturate_int8(avg);
      }
    }
  }
}

void dense_ref(const QDense& layer, std::span<const int8_t> in,
               std::span<int8_t> out) {
  check(static_cast<int>(in.size()) == layer.in_dim, "dense input mismatch");
  check(static_cast<int>(out.size()) == layer.out_dim, "dense output mismatch");
  for (int o = 0; o < layer.out_dim; ++o) {
    const int8_t* w =
        layer.weights.data() + static_cast<size_t>(o) * layer.in_dim;
    int32_t acc = layer.bias[static_cast<size_t>(o)];
    for (int i = 0; i < layer.in_dim; ++i) {
      acc += (static_cast<int32_t>(in[static_cast<size_t>(i)]) -
              layer.in.zero_point) *
             static_cast<int32_t>(w[i]);
    }
    const int32_t scaled =
        multiply_by_quantized_multiplier(acc, layer.requant) +
        layer.out.zero_point;
    out[static_cast<size_t>(o)] =
        static_cast<int8_t>(std::clamp(scaled, layer.act_min, layer.act_max));
  }
}

void qadd_ref(const QAdd& layer, std::span<const int8_t> in_a,
              std::span<const int8_t> in_b, std::span<int8_t> out) {
  const int64_t n = layer.elems();
  check(static_cast<int64_t>(in_a.size()) == n &&
            static_cast<int64_t>(in_b.size()) == n &&
            static_cast<int64_t>(out.size()) == n,
        "qadd tensor size mismatch");
  for (int64_t i = 0; i < n; ++i) {
    const int32_t a = static_cast<int32_t>(in_a[static_cast<size_t>(i)]) -
                      layer.in_a.zero_point;
    const int32_t b = static_cast<int32_t>(in_b[static_cast<size_t>(i)]) -
                      layer.in_b.zero_point;
    const int32_t sum = multiply_by_quantized_multiplier(a, layer.requant_a) +
                        multiply_by_quantized_multiplier(b, layer.requant_b) +
                        layer.out.zero_point;
    out[static_cast<size_t>(i)] = static_cast<int8_t>(
        std::clamp(sum, layer.act_min, layer.act_max));
  }
}

void run_layer_ref(const QLayer& layer, std::span<const int8_t> in,
                   std::vector<int8_t>& out, const uint8_t* skip) {
  check(!std::holds_alternative<QAdd>(layer),
        "QAdd reads two tensors — dispatch through run_layer_ref_multi");
  out.assign(static_cast<size_t>(describe_layer(layer).out_elems), 0);
  if (const auto* conv = std::get_if<QConv2D>(&layer)) {
    conv2d_ref(*conv, in, out, skip);
  } else if (const auto* dw = std::get_if<QDepthwiseConv2D>(&layer)) {
    depthwise_conv2d_ref(*dw, in, out, skip);
  } else if (const auto* pool = std::get_if<QMaxPool>(&layer)) {
    maxpool_ref(*pool, in, out);
  } else if (const auto* pool = std::get_if<QAvgPool>(&layer)) {
    avgpool_ref(*pool, in, out);
  } else if (const auto* fc = std::get_if<QDense>(&layer)) {
    dense_ref(*fc, in, out);
  }
}

void run_layer_ref_multi(const QLayer& layer,
                         const std::vector<std::span<const int8_t>>& inputs,
                         std::vector<int8_t>& out, const uint8_t* skip) {
  check(!inputs.empty(), "layer needs at least one input tensor");
  if (const auto* add = std::get_if<QAdd>(&layer)) {
    check(inputs.size() == 2, "QAdd reads exactly two tensors");
    out.assign(static_cast<size_t>(add->elems()), 0);
    qadd_ref(*add, inputs[0], inputs[1], out);
    return;
  }
  run_layer_ref(layer, inputs[0], out, skip);
}

}  // namespace ataman
