// MCU substrate: board conversions, cycle cost model structure, flash and
// RAM accounting.
#include <gtest/gtest.h>

#include "src/mcu/board.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/deploy_report.hpp"
#include "src/mcu/memory_model.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using testing::make_random_qconv;
using testing::make_random_qdense;
using testing::make_random_qdw;
using testing::make_tiny_qmodel;

TEST(Board, Stm32U575Spec) {
  const BoardSpec b = stm32u575_board();
  EXPECT_EQ(b.core, "Cortex-M33");
  EXPECT_DOUBLE_EQ(b.clock_hz, 160e6);
  EXPECT_EQ(b.flash_bytes, 2000 * 1024);
  EXPECT_EQ(b.ram_bytes, 768 * 1024);
}

TEST(Board, CycleToLatencyAndEnergy) {
  const BoardSpec b;
  // 160k cycles at 160 MHz = 1 ms; 1 ms at 33 mW = 0.033 mJ.
  EXPECT_DOUBLE_EQ(b.cycles_to_ms(160000), 1.0);
  EXPECT_NEAR(b.energy_mj(160000), 0.033, 1e-12);
  // Paper Table I cross-check: 13.25M cycles ~ 82.8 ms, 2.73 mJ.
  EXPECT_NEAR(b.cycles_to_ms(13248000), 82.8, 0.1);
  EXPECT_NEAR(b.energy_mj(13248000), 2.73, 0.01);
}

TEST(CostModel, FastPathEligibility) {
  ConvGeom g;
  g.in_h = 8; g.in_w = 8; g.in_c = 4; g.out_c = 6;
  g.kernel = 3; g.stride = 1; g.pad = 1;
  EXPECT_TRUE(packed_conv_uses_fast_path(make_random_qconv(g, 1)));
  g.in_c = 3;  // RGB stem
  EXPECT_FALSE(packed_conv_uses_fast_path(make_random_qconv(g, 2)));
  g.in_c = 4;
  g.out_c = 5;  // odd channel count
  EXPECT_FALSE(packed_conv_uses_fast_path(make_random_qconv(g, 3)));
}

TEST(CostModel, BasicPathCostsMorePerMacThanFast) {
  // The structural fact that reproduces the paper's LeNet-vs-AlexNet
  // cycles/MAC asymmetry.
  ConvGeom fast;
  fast.in_h = 16; fast.in_w = 16; fast.in_c = 8; fast.out_c = 8;
  fast.kernel = 3; fast.stride = 1; fast.pad = 1;
  ConvGeom basic = fast;
  basic.in_c = 3;

  const QConv2D f = make_random_qconv(fast, 4);
  const QConv2D b = make_random_qconv(basic, 5);
  const double f_per_mac =
      static_cast<double>(packed_conv_cycles(f)) / f.geom.macs();
  const double b_per_mac =
      static_cast<double>(packed_conv_cycles(b)) / b.geom.macs();
  EXPECT_GT(b_per_mac, 1.8 * f_per_mac);
}

TEST(CostModel, UnpackedSitsBetweenFastAndBasic) {
  ConvGeom g;
  g.in_h = 16; g.in_w = 16; g.in_c = 8; g.out_c = 8;
  g.kernel = 3; g.stride = 1; g.pad = 1;
  const QConv2D conv = make_random_qconv(g, 6);
  const int64_t pairs = g.weight_count() / 2;
  const int64_t singles = g.weight_count() % 2;

  const int64_t fast = packed_conv_cycles(conv);
  const OpDescriptor op = describe_layer(conv);
  const int64_t unpacked =
      unpacked_op_cycles(op, pairs, singles, op.positions);
  QConv2D basic_conv = conv;
  basic_conv.geom.in_c = 3;  // force basic path, similar mac count scale
  // Compare per-MAC rates instead of absolute cycles.
  const CortexM33CostTable t;
  EXPECT_GT(static_cast<double>(unpacked),
            0.9 * static_cast<double>(fast));  // unpacked >= ~fast
  EXPECT_LT(t.unpacked_per_pair / 2.0, t.packed_basic_per_mac);
}

TEST(CostModel, PackedModelCyclesSumsLayers) {
  const QModel m = make_tiny_qmodel(70);
  const int64_t total = packed_model_cycles(m);
  EXPECT_GT(total, 0);
  // Removing a conv layer must reduce the total.
  QModel smaller = m;
  smaller.layers.pop_back();  // drop fc
  EXPECT_LT(packed_model_cycles(smaller), total);
}

TEST(CostModel, DenseAndPoolCycles) {
  const QDense fc = make_random_qdense(128, 10, 8);
  EXPECT_GT(dense_cycles(fc), 0);
  QMaxPool pool;
  pool.in_h = 16; pool.in_w = 16; pool.channels = 8;
  pool.kernel = 2; pool.stride = 2;
  const int64_t c2 = pool_cycles(pool);
  pool.kernel = 3;
  pool.stride = 1;
  const int64_t c3 = pool_cycles(pool);
  EXPECT_GT(c3, c2);  // more taps, more outputs
}

TEST(CostModel, DepthwiseConstantsPinnedToKernelMicroCalibration) {
  // Calibrated against bench/kernel_micro (BM_DepthwisePackedCmsis vs
  // BM_DepthwiseUnpacked/0, modeled_mcu_cycles counters): for the
  // 16x16x24 3x3 depthwise layer, packed prices 314.6k modeled cycles
  // and unpacked-at-zero-skip 203.0k — unpacked is cheaper even before
  // skipping because packed depthwise runs the scalar per-channel tap
  // loop (5.2/MAC; the dual-MAC trick cannot feed one accumulator from
  // a per-channel filter) while unpacked pairs taps at 5.5/pair, i.e.
  // 2.75/MAC. These constants anchor every DSE latency number; a silent
  // change here re-prices all depthwise trade-offs, so pin them.
  const CortexM33CostTable t;
  EXPECT_DOUBLE_EQ(t.packed_depthwise_per_mac, 5.2);
  EXPECT_DOUBLE_EQ(t.unpacked_per_pair, 5.5);
  // Per-MAC ordering the calibration established: packed scalar loop
  // above the fast conv pair rate, unpacked pair rate in between.
  EXPECT_GT(t.packed_depthwise_per_mac, t.packed_fast_per_pair);
  EXPECT_LT(t.unpacked_per_pair / 2.0, t.packed_depthwise_per_mac);

  // The modeled relationship on the kernel_micro layer shape: unpacked
  // depthwise at zero skip is cheaper than packed, and the advantage is
  // the per-MAC rate gap (about 1.5x here), not a rounding artifact.
  const QDepthwiseConv2D dw =
      make_random_qdw(16, 16, 24, /*kernel=*/3, /*stride=*/1, /*pad=*/1, 7);
  const int64_t taps = static_cast<int64_t>(dw.kernel) * dw.kernel;
  const int64_t pairs_per_chan = taps / 2;
  const int64_t singles_per_chan = taps % 2;
  const int64_t packed = packed_depthwise_cycles(dw);
  const OpDescriptor op = describe_layer(dw);
  const int64_t unpacked =
      unpacked_op_cycles(op, pairs_per_chan * dw.channels,
                         singles_per_chan * dw.channels, op.positions);
  EXPECT_GT(packed, unpacked);
  EXPECT_GT(static_cast<double>(packed), 1.3 * static_cast<double>(unpacked));
  EXPECT_LT(static_cast<double>(packed), 2.0 * static_cast<double>(unpacked));
}

TEST(MemoryModel, PackedFlashComponents) {
  const QModel m = make_tiny_qmodel(71);
  const FlashReport r = packed_flash(m);
  EXPECT_EQ(r.total_bytes, r.code_bytes + r.weight_bytes);
  EXPECT_EQ(r.weight_bytes, m.weight_bytes());
  EXPECT_EQ(r.unpacked_code_bytes, 0);
  EXPECT_GT(r.percent_of(2000 * 1024), 0.0);
}

TEST(MemoryModel, UnpackedFlashScalesWithRetainedPairs) {
  const QModel m = make_tiny_qmodel(72);
  const FlashReport full = unpacked_flash(m, {100, 200}, {2, 0});
  const FlashReport half = unpacked_flash(m, {50, 100}, {2, 0});
  EXPECT_GT(full.unpacked_code_bytes, half.unpacked_code_bytes);
  // Unpacked conv weights leave the data segment (biases remain).
  EXPECT_LT(full.weight_bytes, m.weight_bytes());
}

TEST(MemoryModel, NegativePairsMeansLayerStaysPacked) {
  const QModel m = make_tiny_qmodel(73);
  const FlashReport mixed = unpacked_flash(m, {-1, 100}, {0, 1});
  const FlashReport all_packed = unpacked_flash(m, {-1, -1}, {0, 0});
  EXPECT_GT(mixed.unpacked_code_bytes, 0);
  EXPECT_EQ(all_packed.unpacked_code_bytes, 0);
  // Layer 0 weights still stored as data in `mixed`.
  EXPECT_GT(mixed.weight_bytes, 0);
}

TEST(MemoryModel, CustomRuntimeSmallerThanGeneric) {
  // §II-A: compile-time specialization cuts runtime flash (up to 30%).
  const MemoryCostTable t;
  EXPECT_LT(t.custom_runtime_code, t.generic_runtime_code);
  EXPECT_GE(static_cast<double>(t.generic_runtime_code -
                                t.custom_runtime_code),
            0.25 * static_cast<double>(t.generic_runtime_code));
}

TEST(MemoryModel, RamPingPongPlusReserve) {
  const QModel m = make_tiny_qmodel(74);
  const MemoryCostTable t;
  const int64_t packed = model_ram_bytes(m, /*packed_engine=*/true, t);
  const int64_t unpacked = model_ram_bytes(m, /*packed_engine=*/false, t);
  EXPECT_GE(packed, unpacked);  // im2col scratch only in packed
  EXPECT_GT(unpacked, t.runtime_reserve);
  // conv0 of the tiny model: in 12*12*3, out 12*12*6 live together.
  EXPECT_GE(unpacked, t.runtime_reserve + 12 * 12 * 3 + 12 * 12 * 6);
}

TEST(DeployReportStruct, FinalizeComputesDerivedFields) {
  DeployReport r;
  r.cycles = 16'000'000;
  r.flash_bytes = 1000 * 1024;
  r.ram_bytes = 100 * 1024;
  const BoardSpec board;
  r.finalize(board);
  EXPECT_NEAR(r.latency_ms, 100.0, 1e-9);
  EXPECT_NEAR(r.energy_mj, 3.3, 1e-9);
  EXPECT_NEAR(r.flash_percent, 50.0, 0.1);
  EXPECT_TRUE(r.fits_flash);
  EXPECT_TRUE(r.fits_ram);
  r.flash_bytes = 3000 * 1024;
  r.finalize(board);
  EXPECT_FALSE(r.fits_flash);
}

}  // namespace
}  // namespace ataman
