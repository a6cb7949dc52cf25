// Reference int8 kernels and engine: float-consistency, skip-mask
// semantics, parameterized shape sweeps.
#include <gtest/gtest.h>

#include <cmath>

#include "src/common/error.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_input;
using testing::make_random_qconv;
using testing::make_random_qdense;
using testing::make_random_qdw;
using testing::make_random_skip;
using testing::make_tiny_qmodel;

// Float model of the quantized conv for consistency checking.
float float_conv_output(const QConv2D& conv, const std::vector<int8_t>& in,
                        int oy, int ox, int oc) {
  const ConvGeom& g = conv.geom;
  const int patch = g.patch_size();
  const int8_t* w = conv.weights.data() + static_cast<size_t>(oc) * patch;
  const float w_scale = conv.w_scales[static_cast<size_t>(oc)];
  double acc = static_cast<double>(conv.bias[static_cast<size_t>(oc)]) *
               conv.in.scale * w_scale;
  int idx = 0;
  for (int ky = 0; ky < g.kernel; ++ky) {
    const int iy = oy * g.stride - g.pad + ky;
    for (int kx = 0; kx < g.kernel; ++kx) {
      const int ix = ox * g.stride - g.pad + kx;
      const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
      for (int c = 0; c < g.in_c; ++c, ++idx) {
        const int32_t x =
            inside ? in[(static_cast<size_t>(iy) * g.in_w + ix) * g.in_c + c]
                   : conv.in.zero_point;
        acc += conv.in.scale * static_cast<double>(x - conv.in.zero_point) *
               w_scale * static_cast<double>(w[idx]);
      }
    }
  }
  return static_cast<float>(acc);
}

struct ConvCase {
  int in_h, in_w, in_c, out_c, kernel, stride, pad;
};

class ConvShapes : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvShapes, QuantizedMatchesFloatWithinOneStep) {
  const ConvCase& c = GetParam();
  ConvGeom g;
  g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
  g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride; g.pad = c.pad;
  const QConv2D conv = make_random_qconv(g, 1000 + c.kernel * 7 + c.in_c);
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 55);
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, out);

  for (int oy = 0; oy < g.out_h(); oy += 2) {
    for (int ox = 0; ox < g.out_w(); ox += 2) {
      for (int oc = 0; oc < g.out_c; oc += 3) {
        const float real = float_conv_output(conv, in, oy, ox, oc);
        const float real_q = std::clamp(
            real / conv.out.scale + conv.out.zero_point,
            static_cast<float>(conv.act_min),
            static_cast<float>(conv.act_max));
        const int8_t got =
            out[(static_cast<size_t>(oy) * g.out_w() + ox) * g.out_c + oc];
        EXPECT_NEAR(static_cast<float>(got), real_q, 1.01f)
            << "at (" << oy << "," << ox << "," << oc << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvShapes,
    ::testing::Values(ConvCase{8, 8, 3, 4, 3, 1, 1},
                      ConvCase{8, 8, 4, 6, 3, 1, 0},
                      ConvCase{10, 10, 2, 3, 5, 1, 2},
                      ConvCase{9, 7, 5, 4, 3, 2, 1},
                      ConvCase{6, 6, 1, 8, 1, 1, 0},
                      ConvCase{12, 12, 8, 2, 5, 2, 2}));

TEST(ConvRef, SkipMaskEqualsZeroedWeights) {
  // The DSE's core numerical assumption: skipping operand i == setting
  // w_i = 0 (the product (a - zp) * 0 vanishes).
  ConvGeom g;
  g.in_h = 7; g.in_w = 7; g.in_c = 4;
  g.out_c = 5; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 77);
  const auto skip = make_random_skip(g, 0.4, 78);
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 79);

  std::vector<int8_t> masked(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, masked, skip.data());

  QConv2D zeroed = conv;
  for (size_t i = 0; i < zeroed.weights.size(); ++i)
    if (skip[i]) zeroed.weights[i] = 0;
  std::vector<int8_t> out2(masked.size());
  conv2d_ref(zeroed, in, out2);

  EXPECT_EQ(masked, out2);
}

TEST(ConvRef, PaddingTapsContributeZero) {
  // An input equal to the zero point everywhere produces bias-only
  // outputs, identical with and without padding taps.
  ConvGeom g;
  g.in_h = 5; g.in_w = 5; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  QConv2D conv = make_random_qconv(g, 123);
  std::vector<int8_t> in(static_cast<size_t>(g.in_h) * g.in_w * g.in_c,
                         static_cast<int8_t>(conv.in.zero_point));
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  conv2d_ref(conv, in, out);
  // All positions of one channel must be identical (pure bias).
  for (int oc = 0; oc < g.out_c; ++oc) {
    const int8_t first = out[static_cast<size_t>(oc)];
    for (int pos = 1; pos < g.positions(); ++pos)
      ASSERT_EQ(out[static_cast<size_t>(pos) * g.out_c + oc], first);
  }
}

// Oracle for the bitwise property tests below: the per-operand definition
// of a reference conv/depthwise output. Every output channel re-gathers
// its patch, bounds-checks each tap and branches on the skip mask per MAC.
int8_t requantize_oracle(int32_t acc, const QuantizedMultiplier& requant,
                         int32_t out_zp, int32_t act_min, int32_t act_max) {
  const int32_t scaled =
      multiply_by_quantized_multiplier(acc, requant) + out_zp;
  return static_cast<int8_t>(std::clamp(scaled, act_min, act_max));
}

void oracle_conv_cols(const QConv2D& layer, const std::vector<int8_t>& in,
                      std::vector<int8_t>& out, int ox_begin, int ox_end,
                      const uint8_t* skip) {
  const ConvGeom& g = layer.geom;
  const int patch = g.patch_size();
  for (int oy = 0; oy < g.out_h(); ++oy) {
    for (int ox = ox_begin; ox < ox_end; ++ox) {
      for (int oc = 0; oc < g.out_c; ++oc) {
        const int8_t* w =
            layer.weights.data() + static_cast<size_t>(oc) * patch;
        const uint8_t* sk =
            skip != nullptr ? skip + static_cast<size_t>(oc) * patch : nullptr;
        int32_t acc = layer.bias[static_cast<size_t>(oc)];
        int idx = 0;
        for (int ky = 0; ky < g.kernel; ++ky) {
          const int iy = oy * g.stride - g.pad + ky;
          for (int kx = 0; kx < g.kernel; ++kx) {
            const int ix = ox * g.stride - g.pad + kx;
            const bool inside =
                iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
            for (int c = 0; c < g.in_c; ++c, ++idx) {
              if (sk != nullptr && sk[idx]) continue;
              const int32_t x =
                  inside ? in[(static_cast<size_t>(iy) * g.in_w + ix) *
                                  g.in_c + c]
                         : layer.in.zero_point;
              acc += (x - layer.in.zero_point) * static_cast<int32_t>(w[idx]);
            }
          }
        }
        out[(static_cast<size_t>(oy) * g.out_w() + ox) * g.out_c + oc] =
            requantize_oracle(acc, layer.requant[static_cast<size_t>(oc)],
                              layer.out.zero_point, layer.act_min,
                              layer.act_max);
      }
    }
  }
}

void oracle_depthwise_cols(const QDepthwiseConv2D& layer,
                           const std::vector<int8_t>& in,
                           std::vector<int8_t>& out, int ox_begin, int ox_end,
                           const uint8_t* skip) {
  const int patch = layer.patch_size();
  for (int oy = 0; oy < layer.out_h(); ++oy) {
    for (int ox = ox_begin; ox < ox_end; ++ox) {
      for (int ch = 0; ch < layer.channels; ++ch) {
        const uint8_t* sk =
            skip != nullptr ? skip + static_cast<size_t>(ch) * patch : nullptr;
        int32_t acc = layer.bias[static_cast<size_t>(ch)];
        int p = 0;
        for (int ky = 0; ky < layer.kernel; ++ky) {
          const int iy = oy * layer.stride - layer.pad + ky;
          for (int kx = 0; kx < layer.kernel; ++kx, ++p) {
            if (sk != nullptr && sk[p]) continue;
            const int ix = ox * layer.stride - layer.pad + kx;
            const bool inside =
                iy >= 0 && iy < layer.in_h && ix >= 0 && ix < layer.in_w;
            const int32_t x =
                inside ? in[(static_cast<size_t>(iy) * layer.in_w + ix) *
                                layer.channels + ch]
                       : layer.in.zero_point;
            acc += (x - layer.in.zero_point) *
                   static_cast<int32_t>(
                       layer.weights[dw_weight_index(ch, p, layer.channels)]);
          }
        }
        out[(static_cast<size_t>(oy) * layer.out_w() + ox) * layer.channels +
            ch] = requantize_oracle(acc, layer.requant[static_cast<size_t>(ch)],
                                    layer.out.zero_point, layer.act_min,
                                    layer.act_max);
      }
    }
  }
}

// One random case of the kernel-vs-oracle property: a skip mask of one
// of four kinds, a full, partial or empty column range, and an output
// buffer pre-filled with noise so untouched columns must stay as they are.
struct OracleCase {
  std::vector<uint8_t> mask;  // empty = no mask (nullptr)
  int ox_begin = 0, ox_end = 0;
  std::vector<int8_t> prefill;

  OracleCase(Rng& rng, int mask_kind, int range_kind, int channels, int patch,
             int out_w, size_t out_elems) {
    if (mask_kind > 0) {
      // 1: mask with no skips, 2: random skips, 3: random skips plus a
      // fully skipped channel.
      mask.assign(static_cast<size_t>(channels) * patch, 0);
      if (mask_kind >= 2)
        for (auto& m : mask) m = rng.next_bool(0.4) ? 1 : 0;
      if (mask_kind == 3) {
        const int ch = rng.next_int(0, channels - 1);
        std::fill_n(mask.begin() + static_cast<ptrdiff_t>(ch) * patch, patch,
                    uint8_t{1});
      }
    }
    // 0: all columns, 1: a random range, 2: an empty range.
    ox_begin = range_kind == 0 ? 0 : rng.next_int(0, out_w);
    ox_end = range_kind == 0   ? out_w
             : range_kind == 1 ? rng.next_int(ox_begin, out_w)
                               : ox_begin;
    prefill = make_random_input(static_cast<int64_t>(out_elems),
                                rng.next_u64());
  }
  const uint8_t* skip() const { return mask.empty() ? nullptr : mask.data(); }
};

TEST(ConvRef, BitwiseEqualsPerOperandOracle) {
  Rng rng(0xC0417);
  int cases = 0;
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      for (int pad = 0; pad <= 2; ++pad) {
        for (int in_c : {1, 3, 5}) {
          for (int zp : {-128, 0, 127}) {
            ConvGeom g;
            g.in_h = 7; g.in_w = 6; g.in_c = in_c;
            g.out_c = 3; g.kernel = kernel; g.stride = stride; g.pad = pad;
            QConv2D conv = make_random_qconv(
                g, rng.next_u64(), /*folded_relu=*/rng.next_bool(0.5));
            conv.in.zero_point = zp;
            for (int i = 0; i < 3; ++i)
              conv.weights[rng.next_below(conv.weights.size())] = -128;
            const auto in = make_random_input(
                static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, rng.next_u64());
            const OracleCase oc(
                rng, cases % 4, cases / 4 % 3, g.out_c, g.patch_size(),
                g.out_w(), static_cast<size_t>(g.positions()) * g.out_c);
            SCOPED_TRACE(::testing::Message()
                         << "k=" << kernel << " s=" << stride << " p=" << pad
                         << " in_c=" << in_c << " zp=" << zp << " mask="
                         << cases % 4 << " cols=[" << oc.ox_begin << ","
                         << oc.ox_end << ")");
            std::vector<int8_t> want = oc.prefill, got = oc.prefill;
            oracle_conv_cols(conv, in, want, oc.ox_begin, oc.ox_end,
                             oc.skip());
            conv2d_ref_cols(conv, in, got, oc.ox_begin, oc.ox_end, oc.skip());
            ASSERT_EQ(got, want);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 162);
}

TEST(DepthwiseRef, BitwiseEqualsPerOperandOracle) {
  Rng rng(0xD3E7);
  int cases = 0;
  for (int kernel : {1, 3, 5}) {
    for (int stride : {1, 2}) {
      for (int pad = 0; pad <= 2; ++pad) {
        for (int channels : {1, 3, 5}) {
          for (int zp : {-128, 0, 127}) {
            QDepthwiseConv2D dw = make_random_qdw(
                7, 6, channels, kernel, stride, pad, rng.next_u64(),
                /*folded_relu=*/rng.next_bool(0.5));
            dw.in.zero_point = zp;
            for (int i = 0; i < 3; ++i)
              dw.weights[rng.next_below(dw.weights.size())] = -128;
            const auto in = make_random_input(
                static_cast<int64_t>(dw.in_h) * dw.in_w * channels,
                rng.next_u64());
            const OracleCase oc(
                rng, cases % 4, cases / 4 % 3, channels, dw.patch_size(),
                dw.out_w(), static_cast<size_t>(dw.positions()) * channels);
            SCOPED_TRACE(::testing::Message()
                         << "k=" << kernel << " s=" << stride << " p=" << pad
                         << " ch=" << channels << " zp=" << zp << " mask="
                         << cases % 4 << " cols=[" << oc.ox_begin << ","
                         << oc.ox_end << ")");
            std::vector<int8_t> want = oc.prefill, got = oc.prefill;
            oracle_depthwise_cols(dw, in, want, oc.ox_begin, oc.ox_end,
                                  oc.skip());
            depthwise_conv2d_ref_cols(dw, in, got, oc.ox_begin, oc.ox_end,
                                      oc.skip());
            ASSERT_EQ(got, want);
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 162);
}

TEST(MaxPoolRef, SelectsWindowMaximum) {
  QMaxPool pool;
  pool.in_h = 4; pool.in_w = 4; pool.channels = 1;
  pool.kernel = 2; pool.stride = 2;
  const std::vector<int8_t> in = {1, 5,  3, 4,   //
                                  2, -8, 7, 0,   //
                                  9, 9,  -1, -2, //
                                  0, 3,  -5, 6};
  std::vector<int8_t> out(4);
  maxpool_ref(pool, in, out);
  EXPECT_EQ(out, (std::vector<int8_t>{5, 7, 9, 6}));
}

TEST(MaxPoolRef, OddExtentDropsTail) {
  QMaxPool pool;
  pool.in_h = 5; pool.in_w = 5; pool.channels = 2;
  pool.kernel = 2; pool.stride = 2;
  EXPECT_EQ(pool.out_h(), 2);
  EXPECT_EQ(pool.out_w(), 2);
}

TEST(DenseRef, MatchesManualDotProduct) {
  QDense fc = make_random_qdense(6, 3, 200);
  const auto in = make_random_input(6, 201);
  std::vector<int8_t> out(3);
  dense_ref(fc, in, out);
  for (int o = 0; o < 3; ++o) {
    int32_t acc = fc.bias[static_cast<size_t>(o)];
    for (int i = 0; i < 6; ++i)
      acc += (static_cast<int32_t>(in[static_cast<size_t>(i)]) -
              fc.in.zero_point) *
             fc.weights[static_cast<size_t>(o) * 6 + i];
    const int32_t scaled =
        multiply_by_quantized_multiplier(acc, fc.requant) +
        fc.out.zero_point;
    EXPECT_EQ(out[static_cast<size_t>(o)],
              static_cast<int8_t>(std::clamp(scaled, fc.act_min, fc.act_max)));
  }
}

TEST(RefEngine, RunsTinyModelEndToEnd) {
  const QModel m = make_tiny_qmodel(3);
  RefEngine engine(&m);
  const auto img = testing::make_random_image(12 * 12 * 3, 44);
  const std::vector<int8_t> logits = engine.run(img);
  EXPECT_EQ(logits.size(), 10u);
  const int cls = engine.classify(img);
  EXPECT_GE(cls, 0);
  EXPECT_LT(cls, 10);
}

TEST(RefEngine, MaskValidationRejectsWrongShape) {
  const QModel m = make_tiny_qmodel(4);
  RefEngine engine(&m);
  SkipMask bad;
  bad.masks.push_back(std::vector<uint8_t>(7, 0));  // wrong size
  const auto img = testing::make_random_image(12 * 12 * 3, 45);
  EXPECT_THROW(engine.run(img, &bad), Error);
}

TEST(RefEngine, EmptyMaskIsExact) {
  const QModel m = make_tiny_qmodel(5);
  RefEngine engine(&m);
  const SkipMask none = SkipMask::none(m);
  const auto img = testing::make_random_image(12 * 12 * 3, 46);
  EXPECT_EQ(engine.run(img), engine.run(img, &none));
}

TEST(SkipMaskType, ApplySkipMaskEqualsMaskedExecution) {
  const QModel m = make_tiny_qmodel(7);
  SkipMask mask = SkipMask::none(m);
  Rng rng(8);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.4) ? 1 : 0;

  const QModel zeroed = apply_skip_mask(m, mask);
  RefEngine masked_engine(&m);
  RefEngine zeroed_engine(&zeroed);
  for (int i = 0; i < 15; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 950 + i);
    ASSERT_EQ(masked_engine.run(img, &mask), zeroed_engine.run(img));
  }
}

TEST(SkipMaskType, CountsAndValidation) {
  const QModel m = make_tiny_qmodel(6);
  SkipMask mask = SkipMask::none(m);
  EXPECT_TRUE(mask.empty());
  EXPECT_EQ(mask.skipped_macs(m), 0);
  // Skip the first 5 operands of conv0/channel0.
  for (int i = 0; i < 5; ++i) mask.masks[0][static_cast<size_t>(i)] = 1;
  EXPECT_FALSE(mask.empty());
  EXPECT_EQ(mask.skipped_static_operands(), 5);
  // conv0 is 12x12 output -> 144 positions.
  EXPECT_EQ(mask.skipped_macs(m), 5 * 144);
}

}  // namespace
}  // namespace ataman
