// Code unpacking: bit-exactness (exact and skipped), offline re-pairing,
// static instruction counts, flash/cycle monotonicity.
#include <gtest/gtest.h>

#include "src/cmsisnn/smlad.hpp"
#include "src/common/rng.hpp"
#include "src/dse/evaluator.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/memory_model.hpp"
#include "src/nn/engine.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/sig/act_stats.hpp"
#include "src/unpack/unpacked_engine.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_input;
using testing::make_random_qconv;
using testing::make_random_skip;
using testing::make_tiny_qmodel;

struct UnpackCase {
  int in_h, in_w, in_c, out_c, kernel, stride, pad;
  double skip_density;
};

class UnpackShapes : public ::testing::TestWithParam<UnpackCase> {};

TEST_P(UnpackShapes, BitExactVsMaskedReference) {
  const UnpackCase& c = GetParam();
  ConvGeom g;
  g.in_h = c.in_h; g.in_w = c.in_w; g.in_c = c.in_c;
  g.out_c = c.out_c; g.kernel = c.kernel; g.stride = c.stride; g.pad = c.pad;
  const QConv2D conv = make_random_qconv(g, 17 * c.out_c + c.kernel);
  const auto skip = make_random_skip(g, c.skip_density, 600);
  const uint8_t* skip_ptr = c.skip_density > 0.0 ? skip.data() : nullptr;

  const UnpackedConv u = UnpackedConv::build(conv, skip_ptr);
  const auto in = make_random_input(
      static_cast<int64_t>(g.in_h) * g.in_w * g.in_c, 601);

  std::vector<int8_t> want(static_cast<size_t>(g.positions()) * g.out_c);
  std::vector<int8_t> got(want.size());
  conv2d_ref(conv, in, want, skip_ptr);
  u.run(in, got, 1);
  EXPECT_EQ(want, got);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndDensities, UnpackShapes,
    ::testing::Values(UnpackCase{8, 8, 3, 4, 3, 1, 1, 0.0},
                      UnpackCase{8, 8, 3, 4, 3, 1, 1, 0.3},
                      UnpackCase{8, 8, 4, 6, 3, 1, 1, 0.5},
                      UnpackCase{10, 10, 2, 3, 5, 1, 2, 0.7},
                      UnpackCase{9, 7, 5, 4, 3, 2, 0, 0.25},
                      UnpackCase{6, 6, 1, 8, 1, 1, 0, 0.9},
                      UnpackCase{6, 6, 2, 2, 3, 1, 1, 1.0}));

TEST(UnpackedConv, ExactBuildCountsEveryWeight) {
  ConvGeom g;
  g.in_h = 6; g.in_w = 6; g.in_c = 3;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;  // patch 27 (odd)
  const QConv2D conv = make_random_qconv(g, 5);
  const UnpackedConv u = UnpackedConv::build(conv);
  EXPECT_EQ(u.static_pairs(), 4 * 13);
  EXPECT_EQ(u.static_singles(), 4);
  EXPECT_EQ(u.retained_macs(), g.macs());
}

TEST(UnpackedConv, RepairingAfterSkipping) {
  // Skip 3 of 27 operands in channel 0: retained 24 -> 12 pairs, 0 single.
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 3;
  g.out_c = 2; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 6);
  std::vector<uint8_t> skip(static_cast<size_t>(g.weight_count()), 0);
  skip[2] = skip[10] = skip[20] = 1;  // channel 0
  const UnpackedConv u = UnpackedConv::build(conv, skip.data());
  EXPECT_EQ(u.channels[0].pairs.size(), 12u);
  EXPECT_FALSE(u.channels[0].has_single);
  EXPECT_EQ(u.channels[1].pairs.size(), 13u);
  EXPECT_TRUE(u.channels[1].has_single);
  // Skipped operand indices never appear in the program.
  for (const MacPairOp& op : u.channels[0].pairs) {
    EXPECT_NE(op.operand_a, 2u);
    EXPECT_NE(op.operand_b, 10u);
    EXPECT_NE(op.operand_a, 20u);
  }
}

TEST(UnpackedConv, PackedConstantsMatchWeights) {
  ConvGeom g;
  g.in_h = 3; g.in_w = 3; g.in_c = 2;
  g.out_c = 1; g.kernel = 1; g.stride = 1; g.pad = 0;  // patch 2
  QConv2D conv = make_random_qconv(g, 7);
  conv.weights = {64, 20};  // the paper's example pair
  const UnpackedConv u = UnpackedConv::build(conv);
  ASSERT_EQ(u.channels[0].pairs.size(), 1u);
  // low lane = first operand (20 is hi? no: lo=w[0]=64? check convention)
  // pack_weight_pair(hi=w[1]=20, lo=w[0]=64).
  EXPECT_EQ(u.channels[0].pairs[0].weight_const,
            pack_weight_pair(20, 64));
}

TEST(UnpackedConv, FullSkipYieldsBiasOnly) {
  ConvGeom g;
  g.in_h = 4; g.in_w = 4; g.in_c = 2;
  g.out_c = 3; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 8);
  std::vector<uint8_t> skip(static_cast<size_t>(g.weight_count()), 1);
  const UnpackedConv u = UnpackedConv::build(conv, skip.data());
  EXPECT_EQ(u.static_pairs(), 0);
  EXPECT_EQ(u.static_singles(), 0);
  EXPECT_EQ(u.retained_macs(), 0);

  const auto in = make_random_input(4 * 4 * 2, 9);
  std::vector<int8_t> out(static_cast<size_t>(g.positions()) * g.out_c);
  u.run(in, out, 1);
  // Every position of a channel outputs requant(bias).
  for (int oc = 0; oc < g.out_c; ++oc)
    for (int pos = 1; pos < g.positions(); ++pos)
      EXPECT_EQ(out[static_cast<size_t>(pos) * g.out_c + oc],
                out[static_cast<size_t>(oc)]);
}

TEST(UnpackedEngine, ExactUnpackingBitExactVsReference) {
  const QModel m = make_tiny_qmodel(12);
  RefEngine ref(&m);
  UnpackedEngine up(&m);
  for (int i = 0; i < 30; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 700 + i);
    ASSERT_EQ(ref.run(img), up.run(img)) << "image " << i;
  }
}

TEST(UnpackedEngine, SkippedEngineMatchesMaskedReference) {
  const QModel m = make_tiny_qmodel(13);
  SkipMask mask = SkipMask::none(m);
  Rng rng(14);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.35) ? 1 : 0;

  RefEngine ref(&m);
  UnpackedEngine up(&m, &mask);
  for (int i = 0; i < 30; ++i) {
    const auto img = testing::make_random_image(12 * 12 * 3, 800 + i);
    ASSERT_EQ(ref.run(img, &mask), up.run(img)) << "image " << i;
  }
}

TEST(UnpackedEngine, SkippingReducesCyclesAndMacs) {
  const QModel m = make_tiny_qmodel(15);
  UnpackedEngine exact(&m);
  SkipMask mask = SkipMask::none(m);
  Rng rng(16);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.5) ? 1 : 0;
  UnpackedEngine skipped(&m, &mask);

  EXPECT_LT(skipped.total_cycles(), exact.total_cycles());
  EXPECT_LT(skipped.executed_macs(), exact.executed_macs());
  EXPECT_EQ(exact.executed_macs(), m.mac_count());
}

TEST(UnpackedEngine, FlashShrinksWithSkipping) {
  const QModel m = make_tiny_qmodel(17);
  UnpackedEngine exact(&m);
  SkipMask mask = SkipMask::none(m);
  Rng rng(18);
  for (auto& layer_mask : mask.masks)
    for (auto& v : layer_mask) v = rng.next_bool(0.6) ? 1 : 0;
  UnpackedEngine skipped(&m, &mask);
  EXPECT_LT(skipped.flash().unpacked_code_bytes,
            exact.flash().unpacked_code_bytes);
  EXPECT_LT(skipped.flash().total_bytes, exact.flash().total_bytes);
}

TEST(CostModel, UnpackedCyclesMonotoneInRetainedOps) {
  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 4;
  g.out_c = 4; g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 19);
  const OpDescriptor op = describe_layer(conv);
  const int64_t full = unpacked_op_cycles(op, 72, 0, op.positions);
  const int64_t half = unpacked_op_cycles(op, 36, 0, op.positions);
  const int64_t none = unpacked_op_cycles(op, 0, 0, op.positions);
  EXPECT_GT(full, half);
  EXPECT_GT(half, none);
  EXPECT_GT(none, 0);  // epilogues remain
}

TEST(UnpackedEngine, CycleProfileCoversAllLayers) {
  const QModel m = make_tiny_qmodel(10);
  Dataset eval(ImageShape{m.in_h, m.in_w, m.in_c}, 10);
  Rng rng(11);
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> img(static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    eval.add(img, rng.next_int(0, 9));
  }
  const auto sig =
      compute_model_significance(m, capture_activation_stats(m, eval, 16));
  const ApproxConfig config = ApproxConfig::uniform(2, 0.05);
  const SkipMask mask = make_skip_mask(m, sig, config);
  ASSERT_GT(mask.skipped_static_operands(), 0);

  // Fractional dispatch and softmax constants: rows and totals must
  // still agree exactly.
  CortexM33CostTable fractional;
  fractional.layer_dispatch = 400.5;
  fractional.softmax_per_logit = 30.3;
  const std::vector<uint8_t> hybrid = {0, 1};
  for (const CortexM33CostTable& costs : {CortexM33CostTable{}, fractional}) {
    for (const SkipMask* skip : {static_cast<const SkipMask*>(nullptr),
                                 &mask}) {
      for (const std::vector<uint8_t>* selection :
           {static_cast<const std::vector<uint8_t>*>(nullptr), &hybrid}) {
        const UnpackedEngine engine(&m, skip, costs, {}, selection);
        EXPECT_EQ(engine.layer_profile().size(), m.layers.size() + 1);
        EXPECT_EQ(sum_profile_cycles(engine.layer_profile()),
                  engine.total_cycles())
            << "masked " << (skip != nullptr) << " hybrid "
            << (selection != nullptr) << " dispatch " << costs.layer_dispatch;
      }
    }
    // The all-unpacked masked deployment is what the DSE prices.
    const ConfigEvaluator evaluator(&m, &sig, &eval, -1, costs);
    EXPECT_EQ(UnpackedEngine(&m, &mask, costs).total_cycles(),
              evaluator.evaluate_static(config).cycles)
        << "dispatch " << costs.layer_dispatch;
  }
}

}  // namespace
}  // namespace ataman
