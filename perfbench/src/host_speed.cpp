// Calibration bursts: a fixed int8 multiply-accumulate kernel whose CPU
// time tracks the host's current speed (see HostSpeed in bench.hpp).
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "src/common/parallel.hpp"

namespace perfbench {

namespace {

constexpr int kRows = 64;       // output channels
constexpr int kCols = 1024;     // inputs per dot product
constexpr int kChunkReps = 96;  // passes per chunk
constexpr int kChunksPerLane = 96;

struct CalibData {
  std::array<int8_t, kCols * 2> input{};
  std::array<int8_t, kRows * kCols> weights{};
  CalibData() {
    for (size_t i = 0; i < input.size(); ++i)
      input[i] = static_cast<int8_t>(i * 31 + 7);
    for (size_t i = 0; i < weights.size(); ++i)
      weights[i] = static_cast<int8_t>(i * 17 + 3);
  }
};

const CalibData& calib_data() {
  static const CalibData data;
  return data;
}

// One chunk: kChunkReps passes of kRows dot products, each pass on a
// shifted input window so no pass can be folded into another.
int64_t calib_chunk(int64_t chunk) {
  const CalibData& d = calib_data();
  int64_t total = 0;
  for (int r = 0; r < kChunkReps; ++r) {
    const int8_t* in = d.input.data() + (chunk * kChunkReps + r) % kCols;
    for (int o = 0; o < kRows; ++o) {
      const int8_t* w = d.weights.data() + o * kCols;
      int32_t acc = 0;
      for (int i = 0; i < kCols; ++i)
        acc += static_cast<int32_t>(in[i]) * static_cast<int32_t>(w[i]);
      total += acc >> 4;
    }
  }
  return total;
}

std::atomic<int64_t> calib_sink{0};

}  // namespace

int bench_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kOmpThreads);
}

namespace {
double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 +
         static_cast<double>(t.tv_nsec) / 1e6;
}
}  // namespace

double HostSpeed::burst() {
  const int lanes = bench_threads();
  std::vector<double> busy_ms(static_cast<size_t>(lanes), 0.0);
  std::vector<int> seen(static_cast<size_t>(lanes), 0);
  const int used = parallel_for_indexed(
      0, static_cast<int64_t>(lanes) * kChunksPerLane,
      [&](int lane, int64_t c) {
        const size_t l = static_cast<size_t>(lane);
        const double t0 = thread_cpu_ms();
        calib_sink.fetch_add(calib_chunk(c), std::memory_order_relaxed);
        busy_ms[l] += thread_cpu_ms() - t0;
        ++seen[l];
      });
  check(used <= lanes, "perfbench: calibration ran on more lanes than set");
  // Mean CPU time per chunk over lanes, scaled to kChunksPerLane chunks.
  double per_chunk_ms = 0.0;
  int busy = 0;
  for (int l = 0; l < used; ++l) {
    const size_t i = static_cast<size_t>(l);
    if (seen[i] == 0) continue;
    per_chunk_ms += busy_ms[i] / seen[i];
    ++busy;
  }
  check(busy > 0, "perfbench: calibration burst ran no chunk");
  bursts_.push_back(per_chunk_ms / busy * kChunksPerLane);
  return bursts_.back();
}

void HostSpeed::warm_up(double ms) {
  const Clock::time_point end = plus_ms(Clock::now(), ms);
  while (Clock::now() < end) burst();
  bursts_.clear();
}

double HostSpeed::factor() const {
  check(!bursts_.empty(), "perfbench: no calibration burst was run");
  return kCalibRefMs / median(bursts_);
}

}  // namespace perfbench
