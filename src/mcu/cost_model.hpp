// Cortex-M33 cycle cost model.
//
// Latency on this MCU class is a deterministic function of the executed
// instruction stream (in-order core, no data cache, flat flash with a
// prefetch buffer); the paper itself relies on this by reporting that its
// offline cycle counters "closely align with the cycles of the actual
// model deployment" (§II-C). This model prices the instruction streams of
// the three kernel families in the repo:
//
// 1. Packed CMSIS-NN-style convolution (the exact baseline [2]).
//    im2col expands the receptive field to int16 (q15), then a dual-MAC
//    inner loop runs SMLAD over weight pairs. CMSIS has two variants:
//      * FAST  (in_c % 4 == 0 and out_c % 2 == 0): 2 output channels x
//        2 columns per iteration, weights expanded with SXTB16; ~2.9
//        cycles per weight pair (1.45/MAC).
//      * BASIC (everything else, e.g. RGB input layers): scalar LDRSB/
//        SMLABB code, ~11.8 cycles per pair (5.9/MAC).
//    This split is what makes small/odd-geometry CNNs (the paper's LeNet,
//    2.94 cyc/MAC end to end) proportionally slower than wide 3x3 CNNs
//    (AlexNet, 1.79 cyc/MAC): the RGB stem runs on the basic path and
//    per-channel epilogues amortize worse.
//
// 2. Unpacked fixed-weight convolution (the paper's §II-B contribution).
//    Straight-line code; per retained pair: MOVW+MOVT materialize the
//    packed 32-bit weight constant (two sign-extended int8 weights, e.g.
//    64*2^16 + 20 = 4194324 for w1=64, w2=20), one activation-pair load,
//    one SMLAD, plus amortized flash-fetch stalls (straight-line code
//    defeats the loop prefetch buffer). No im2col, no loop/branch
//    overhead, cheaper epilogue. Note the per-pair cost (~5.5) sits
//    *between* the basic and fast packed paths: unpacking alone speeds up
//    basic-path layers dramatically and costs wide fast-path layers a
//    little — the headline wins of Table II come from unpacking combined
//    with significance skipping (fewer executed pairs), which is exactly
//    the paper's "cooperative" framing.
//
// 3. Packed fully-connected / pooling / softmax, common to all engines.
//
// All constants live in CortexM33CostTable, and one walk over the layers
// (deployment_profile, below) turns them into per-layer cycle rows for
// packed, unpacked, hybrid and streaming deployments alike: change one
// place to re-price every engine, bench and report.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/mcu/deploy_report.hpp"
#include "src/quant/qtypes.hpp"

namespace ataman {

struct StreamPlan;

struct CortexM33CostTable {
  // -- shared --
  double layer_dispatch = 400.0;     // runtime per-layer call/setup
  double softmax_per_logit = 30.0;

  // -- packed (CMSIS-like) convolution --
  double im2col_per_elem = 3.0;      // load q7, extend to q15, store
  double packed_fast_per_pair = 2.9; // 2x2 SMLAD kernel, per weight pair
  double packed_basic_per_mac = 5.9; // scalar path, per MAC
  double packed_chan_epilogue = 30.0;  // bias+requant+saturate+store per
                                       // (position x channel)
  // -- packed fully-connected --
  double fc_per_pair = 2.9;
  double fc_out_epilogue = 30.0;

  // -- unpacked convolution (this paper) --
  double unpacked_per_pair = 5.5;    // MOVW+MOVT+LDR+SMLAD+fetch stalls
  double unpacked_per_single = 3.5;  // MOVW+LDRSB+SMLABB for odd leftovers
  double unpacked_chan_epilogue = 24.0;  // branchless epilogue
  double unpacked_layer_setup = 200.0;   // customized runtime, no dispatch
                                         // table walk

  // -- packed depthwise convolution --
  // CMSIS-NN depthwise kernels (arm_depthwise_conv_s8) run a scalar
  // per-channel tap loop — the dual-MAC trick needs two weights against
  // one accumulator, which a per-channel filter cannot feed from
  // consecutive memory. Priced per MAC like the basic conv path, with a
  // slightly cheaper constant (no im2col, better locality). Calibrated
  // against bench/kernel_micro (BM_DepthwisePackedCmsis vs
  // BM_DepthwiseUnpacked/0): at these rates packed depthwise prices
  // ~1.5x the unpacked zero-skip program on the 16x16x24 3x3 layer,
  // matching the scalar-loop vs paired-straight-line instruction shape;
  // pinned by tests/test_mcu.cpp so re-pricing is a deliberate act.
  double packed_depthwise_per_mac = 5.2;

  // -- pooling --
  double pool_per_output_elem_per_tap = 2.0;  // load+compare per window tap
  double avgpool_div_per_output = 7.0;  // rounding divide + saturate per
                                        // output element (SDIV + fixup)

  // -- residual add --
  // Per output element: two loads, two fixed-point requants (SMMUL-class
  // rounding multiply + shift each), add, saturate, store. Identical for
  // every engine — QAdd has no weights to pack or unpack.
  double qadd_per_elem = 9.0;

  // -- streaming splice --
  // Per int8 element copied from the activation ring instead of
  // recomputed (steady-state streaming, src/mcu/stream_plan.hpp). Bands
  // are contiguous per row, so the copy runs word-wide LDR/STR (~0.5
  // cycles/byte) plus a little per-row loop overhead.
  double stream_splice_per_elem = 0.6;
};

// True when the layer qualifies for the CMSIS fast (dual-SMLAD) path.
bool packed_conv_uses_fast_path(const QConv2D& layer);

// Kernel cycles ----------------------------------------------------------
//
// One function per kernel family, each rounded to whole cycles. None of
// them adds `layer_dispatch`: the cost walk below decides which rows pay
// it.

int64_t packed_conv_cycles(const QConv2D& layer,
                           const CortexM33CostTable& t = {});

// Packed (loop-kernel) depthwise convolution.
int64_t packed_depthwise_cycles(const QDepthwiseConv2D& layer,
                                const CortexM33CostTable& t = {});

// Unpacked conv or depthwise (`op` from describe_layer): per-channel
// straight-line programs. `static_pairs`/`static_singles` are the
// retained SMLAD pairs / leftover single MACs summed over the layer's
// channels (static code, reused at every output position). The pair,
// single and epilogue terms run at `recomputed_positions` output
// positions (`op.positions` for a whole frame, fewer under a streaming
// splice plan); `unpacked_layer_setup` is paid once either way. Throws
// on negative counts or positions outside [0, op.positions].
int64_t unpacked_op_cycles(const OpDescriptor& op, int64_t static_pairs,
                           int64_t static_singles,
                           int64_t recomputed_positions,
                           const CortexM33CostTable& t = {});

int64_t dense_cycles(const QDense& layer, const CortexM33CostTable& t = {});

int64_t pool_cycles(const QMaxPool& layer, const CortexM33CostTable& t = {});

int64_t avgpool_cycles(const QAvgPool& layer,
                       const CortexM33CostTable& t = {});

// Residual add: per-element requantize-and-add (same stream on every
// engine; never approximated, never unpacked).
int64_t qadd_cycles(const QAdd& layer, const CortexM33CostTable& t = {});

// The cost walk ----------------------------------------------------------
//
// The one place a deployment priced with CortexM33CostTable becomes
// cycles: the cmsis and unpacked engines, the DSE's static metrics, the
// hybrid layer selection and the streaming row all read its rows. It
// returns one row per layer, in layer order, then a final "softmax" row
// (`softmax_per_logit` x the last dense layer's width). Every row is
// rounded to whole cycles, and every total is sum_profile_cycles of the
// rows, so a profile and its total cannot disagree.
//
// Which approximable layers are unpacked comes from `static_pairs` /
// `static_singles`, indexed by approximable-layer ordinal: a negative
// pair count keeps that layer packed (the unpacked_flash convention),
// and empty spans keep every layer packed. Otherwise both must hold
// QModel::approx_layer_count() entries.
//
// Row contents:
//   * packed layer: `layer_dispatch` + its kernel. Kinds "conv",
//     "depthwise", "pool", "avgpool", "fc", "add".
//   * unpacked layer: unpacked_op_cycles alone — the customized runtime's
//     `unpacked_layer_setup` replaces dispatch. Kinds "conv(unpacked)",
//     "depthwise(unpacked)".
//   * `macs`: MACs the row executes (retained ones for unpacked rows).
//
// With `stream` set (a plan of plan_stream/plan_stream_steady for this
// model), each conv/depthwise row prices only the plan's
// `recomputed_positions` — every packed term and the unpacked pair,
// single and epilogue terms are proportional to output positions — and a
// spliced layer's row adds its band copy at `stream_splice_per_elem`.
// Pools, dense, QAdd, dispatch and softmax recompute in full.
//
// A new operator adds one case here. XCubeEngine prices a different
// runtime with its own table (src/xcube) and keeps its own walk.
std::vector<LayerProfile> deployment_profile(
    const QModel& model, std::span<const int64_t> static_pairs,
    std::span<const int64_t> static_singles,
    const CortexM33CostTable& t = {}, const StreamPlan* stream = nullptr);

// Sum of the cycle column of a profile.
int64_t sum_profile_cycles(const std::vector<LayerProfile>& profile);

// Whole-model cycles of the packed (exact CMSIS-like) deployment: the sum
// of its all-packed deployment_profile.
int64_t packed_model_cycles(const QModel& model,
                            const CortexM33CostTable& t = {});

// Streaming (temporal reuse) ---------------------------------------------
//
// Steady-state per-frame cost of the packed deployment serving
// overlapping windows that advance `stride_cols` input columns per frame:
// the all-packed deployment_profile priced under
// plan_stream_steady(model, stride_cols).

struct StreamingCostRow {
  int stride_cols = 0;
  int64_t cycles_per_frame = 0;  // packed engine, steady state, reuse on
  int64_t full_cycles = 0;       // packed_model_cycles: the reuse-off frame
  int64_t macs_per_frame = 0;    // recomputed MACs (StreamPlan::frame_macs)
  int64_t full_macs = 0;
  int64_t spliced_elems = 0;
  double reuse_ratio = 0.0;      // full_macs / macs_per_frame
};

StreamingCostRow steady_state_stream_cost(const QModel& model, int stride_cols,
                                          const CortexM33CostTable& t = {});

// Fill the DeployReport steady-state streaming row (stride, cycles,
// latency, energy-per-frame from `board`, reuse ratio) for `model`
// served at `stride_cols` columns per frame.
void attach_streaming_row(DeployReport& report, const QModel& model,
                          int stride_cols, const BoardSpec& board,
                          const CortexM33CostTable& t = {});

}  // namespace ataman
