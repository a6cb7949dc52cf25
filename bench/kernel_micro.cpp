// google-benchmark microbenches for the kernel substrates: host execution
// throughput of packed vs unpacked vs skipped convolutions, plus the
// modeled MCU cycles attached as counters (the numbers that actually
// decide Table II). Host ns/op and modeled device cycles are independent
// axes; both should move the same direction under skipping.
#include <benchmark/benchmark.h>

#include "src/cmsisnn/im2col_q15.hpp"
#include "src/cmsisnn/packed_kernels.hpp"
#include "src/cmsisnn/smlad.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/nn/qkernels_ref.hpp"
#include "src/unpack/unpacked_layer.hpp"
#include "tests/test_util.hpp"

namespace {

using namespace ataman;

QConv2D bench_conv() {
  ConvGeom g;
  g.in_h = 16; g.in_w = 16; g.in_c = 16;
  g.out_c = 16; g.kernel = 3; g.stride = 1; g.pad = 1;
  return ataman::testing::make_random_qconv(g, 4242);
}

void BM_ConvReference(benchmark::State& state) {
  // state.range(0): percent of operands skipped.
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(
      conv.geom, state.range(0) / 100.0, 77);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 1);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    conv2d_ref(conv, in, out, state.range(0) > 0 ? skip.data() : nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["macs"] = static_cast<double>(conv.geom.macs());
}
BENCHMARK(BM_ConvReference)->Arg(0)->Arg(50);

void BM_ConvPackedCmsis(benchmark::State& state) {
  const QConv2D conv = bench_conv();
  const PackedWeights packed = PackedWeights::pack(
      conv.weights, conv.geom.out_c, conv.geom.patch_size());
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 2);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    packed_conv2d(conv, packed, in, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(packed_conv_cycles(conv));
}
BENCHMARK(BM_ConvPackedCmsis);

void BM_ConvUnpacked(benchmark::State& state) {
  // state.range(0): percent of operands skipped.
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(
      conv.geom, state.range(0) / 100.0, 77);
  const UnpackedConv u = UnpackedConv::build(
      conv, state.range(0) > 0 ? skip.data() : nullptr);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 3);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c);
  for (auto _ : state) {
    u.run(in, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] = static_cast<double>(
      unpacked_op_cycles(describe_layer(conv), u.static_pairs(),
                         u.static_singles(), conv.geom.positions()));
  state.counters["retained_macs"] = static_cast<double>(u.retained_macs());
}
BENCHMARK(BM_ConvUnpacked)->Arg(0)->Arg(25)->Arg(50)->Arg(75);

// Batched GEMM rows: state.range(0) = batch size. items/s counts images,
// so the per-image amortization of streaming each weight pair (or each
// unpacked program) once per lane-block shows up directly as items/s
// scaling from Arg(1) to Arg(8). Arg(1) runs the 1-lane block, the same
// call as the single-image rows above.
void BM_ConvPackedCmsisBatch(benchmark::State& state) {
  const QConv2D conv = bench_conv();
  const int batch = static_cast<int>(state.range(0));
  const PackedWeights packed = PackedWeights::pack(
      conv.weights, conv.geom.out_c, conv.geom.patch_size());
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(16 * 16 * 16) * batch, 2);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c * static_cast<size_t>(batch));
  for (auto _ : state) {
    packed_conv2d(conv, packed, in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.counters["modeled_mcu_cycles_per_image"] = static_cast<double>(
      packed_conv_cycles(conv));
}
BENCHMARK(BM_ConvPackedCmsisBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_ConvUnpackedBatch(benchmark::State& state) {
  // state.range(0) = batch; exact unpacking (no skips) to isolate the
  // batch amortization axis from the skip axis of BM_ConvUnpacked.
  const QConv2D conv = bench_conv();
  const int batch = static_cast<int>(state.range(0));
  const UnpackedConv u = UnpackedConv::build(conv);
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(16 * 16 * 16) * batch, 3);
  std::vector<int8_t> out(static_cast<size_t>(conv.geom.positions()) *
                          conv.geom.out_c * static_cast<size_t>(batch));
  for (auto _ : state) {
    u.run(in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ConvUnpackedBatch)->Arg(1)->Arg(4)->Arg(8);

void BM_DenseBatch(benchmark::State& state) {
  const QDense fc = ataman::testing::make_random_qdense(1024, 64, 4545);
  const int batch = static_cast<int>(state.range(0));
  const PackedWeights packed =
      PackedWeights::pack(fc.weights, fc.out_dim, fc.in_dim);
  const auto in = ataman::testing::make_random_input(
      static_cast<int64_t>(fc.in_dim) * batch, 21);
  std::vector<int8_t> out(static_cast<size_t>(fc.out_dim) *
                          static_cast<size_t>(batch));
  for (auto _ : state) {
    packed_dense(fc, packed, in, out, batch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DenseBatch)->Arg(1)->Arg(4)->Arg(8);

QDepthwiseConv2D bench_depthwise() {
  return ataman::testing::make_random_qdw(16, 16, 16, /*kernel=*/3,
                                          /*stride=*/1, /*pad=*/1, 4343);
}

std::vector<uint8_t> bench_depthwise_skip(const QDepthwiseConv2D& dw,
                                          int percent) {
  Rng rng(177);
  std::vector<uint8_t> skip(static_cast<size_t>(dw.weight_count()));
  for (auto& m : skip) m = rng.next_bool(percent / 100.0) ? 1 : 0;
  return skip;
}

void BM_DepthwiseReference(benchmark::State& state) {
  // state.range(0): percent of (channel, tap) operands skipped.
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto skip =
      bench_depthwise_skip(dw, static_cast<int>(state.range(0)));
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 11);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    depthwise_conv2d_ref(dw, in, out,
                         state.range(0) > 0 ? skip.data() : nullptr);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["macs"] = static_cast<double>(dw.macs());
}
BENCHMARK(BM_DepthwiseReference)->Arg(0)->Arg(50);

void BM_DepthwisePackedCmsis(benchmark::State& state) {
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 12);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    packed_depthwise_conv2d(dw, in, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(packed_depthwise_cycles(dw));
}
BENCHMARK(BM_DepthwisePackedCmsis);

void BM_DepthwiseUnpacked(benchmark::State& state) {
  // state.range(0): percent of (channel, tap) operands skipped.
  const QDepthwiseConv2D dw = bench_depthwise();
  const auto skip =
      bench_depthwise_skip(dw, static_cast<int>(state.range(0)));
  const UnpackedDepthwise u = UnpackedDepthwise::build(
      dw, state.range(0) > 0 ? skip.data() : nullptr);
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 13);
  std::vector<int8_t> out(static_cast<size_t>(dw.positions()) * dw.channels);
  for (auto _ : state) {
    u.run(in, out, 1);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] = static_cast<double>(
      unpacked_op_cycles(describe_layer(dw), u.static_pairs(),
                         u.static_singles(), dw.positions()));
  state.counters["retained_macs"] = static_cast<double>(u.retained_macs());
}
BENCHMARK(BM_DepthwiseUnpacked)->Arg(0)->Arg(25)->Arg(50)->Arg(75);

void BM_AvgPoolReference(benchmark::State& state) {
  QAvgPool pool;
  pool.in_h = 16;
  pool.in_w = 16;
  pool.channels = 16;
  pool.kernel = 2;
  pool.stride = 2;
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 14);
  std::vector<int8_t> out(8 * 8 * 16);
  for (auto _ : state) {
    avgpool_ref(pool, in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["modeled_mcu_cycles"] =
      static_cast<double>(avgpool_cycles(pool));
}
BENCHMARK(BM_AvgPoolReference);

void BM_Im2ColQ15(benchmark::State& state) {
  const QConv2D conv = bench_conv();
  const auto in = ataman::testing::make_random_input(16 * 16 * 16, 4);
  std::vector<int16_t> col(static_cast<size_t>(conv.geom.patch_size()));
  int pos = 0;
  for (auto _ : state) {
    im2col_patch_q15(conv, in, pos % 16, (pos / 16) % 16, col.data());
    benchmark::DoNotOptimize(col.data());
    ++pos;
  }
}
BENCHMARK(BM_Im2ColQ15);

void BM_SmladSemantics(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint32_t> xs(1024), ys(1024);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = static_cast<uint32_t>(rng.next_u64());
    ys[i] = static_cast<uint32_t>(rng.next_u64());
  }
  int32_t acc = 0;
  for (auto _ : state) {
    for (size_t i = 0; i < xs.size(); ++i) acc = smlad(xs[i], ys[i], acc);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(xs.size()) * 2);
}
BENCHMARK(BM_SmladSemantics);

void BM_UnpackedBuild(benchmark::State& state) {
  // Offline cost of building (and re-pairing) an unpacked layer — the
  // paper runs this once per DSE config at compile time.
  const QConv2D conv = bench_conv();
  const auto skip = ataman::testing::make_random_skip(conv.geom, 0.5, 99);
  for (auto _ : state) {
    UnpackedConv u = UnpackedConv::build(conv, skip.data());
    benchmark::DoNotOptimize(u.channels.data());
  }
}
BENCHMARK(BM_UnpackedBuild);

}  // namespace

BENCHMARK_MAIN();
