// Shared pieces of the end-to-end benchmark: command-line arguments, the
// metric report, the span trace, sample statistics and the model set-up
// every workload starts from. perfbench/README.md is the handbook.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/metrics.hpp"
#include "src/core/ataman.hpp"
#include "src/serve/server.hpp"
#include "src/sig/skip_plan.hpp"

namespace perfbench {

using namespace ataman;

// Fixed thread budget: 3 serve workers + 1 generator (the caller thread)
// fill a 4-hw-thread host; OpenMP teams take min(4, nproc).
inline constexpr int kServeWorkers = 3;
inline constexpr int kMaxBatch = 8;
inline constexpr int kOmpThreads = 4;
// Trained weights depend on the OpenMP team size, so training always runs
// with this many threads, on any host, and the cache is keyed by it.
inline constexpr int kTrainThreads = 4;
// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool perturb_oracle = false;  // corrupt one oracle entry (self-test)
  bool prepare_only = false;    // train/cache every model, then exit
  std::string work_dir = ".bench_build/perfbench-run";
};

// --- time -------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point plus_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

// Open-loop pacing. The generator spins instead of sleeping: on a virtual
// machine, waking a halted vCPU from a timer can take milliseconds, which
// would make the generator's own lateness the measured tail.
inline void wait_until(Clock::time_point due) {
  while (Clock::now() < due) {
  }
}

// --- host speed -------------------------------------------------------------

// The shared host's speed for this benchmark's work swings by up to 2x,
// independently on each vCPU, as other tenants come and go on the same
// cores, and a whole run can land in a slow or a fast spell. Every
// end-to-end time is therefore reported at a reference host speed: the run
// takes a calibration burst after each timed span, and each time is scaled
// by kCalibRefMs over the run's median burst (each rate by the inverse).
// One factor per run, because a single burst is too noisy to scale the
// span next to it. A burst runs a fixed benchmark-owned int8
// multiply-accumulate kernel, the shape of the engines' inner loops, on
// bench_threads() lanes, timed in thread CPU time; nothing in the program
// changes it. The raw figures are logged beside the scaled ones.
inline constexpr double kCalibRefMs = 120.0;  // a burst at reference speed

// OpenMP team for the DSE, analyze() and the calibration bursts:
// min(4, nproc), set once at start.
int bench_threads();

class HostSpeed {
 public:
  // Runs one burst and returns its time (ms): the mean over lanes of each
  // lane's CPU time. Wall time would also count the wake-up of an idle
  // vCPU and lanes that briefly share one vCPU; neither says how fast a
  // vCPU runs.
  double burst();
  // Runs bursts for `ms` so every vCPU is awake, then forgets them.
  void warm_up(double ms);
  // Wall -> reference time: kCalibRefMs / the median burst so far.
  double factor() const;
  const std::vector<double>& bursts() const { return bursts_; }

 private:
  std::vector<double> bursts_;
};

// --- statistics -------------------------------------------------------------

// Percentiles elsewhere are ataman::percentile (nearest rank).
double median(std::vector<double> v);
// Spearman rank correlation (average ranks for ties); 0 when undefined.
double spearman(const std::vector<double>& x, const std::vector<double>& y);
// Peak resident memory (MiB) since the last reset_peak_rss().
double peak_rss_mb();
// Returns memory the allocator still holds from freed set-ups to the OS and
// restarts the peak, so peak_rss_mb covers the live set from here on.
void reset_peak_rss();

// --- the report -------------------------------------------------------------

// Metric values by name; names and units come from the catalogs below.
// The final JSON line carries the end-to-end catalog (untraced run) or the
// per-layer catalog (traced run).
class Report {
 public:
  void set(const std::string& name, double value);
  // Log line: the sample count behind a percentile or median.
  void samples(const std::string& what, int64_t count);

  // Counts work items; failed ones are tallied by reason and listed at the
  // end.
  void attempt(int64_t n) { attempted_ += n; }
  void fail(int64_t n, const std::string& why);

  // Prints the metric table and the final JSON line; returns the exit code.
  // End-to-end times, set as wall-clock values, are reported multiplied by
  // `speed_factor` (HostSpeed::factor) and rates divided by it; the
  // wall-clock values go to the log.
  int finish(bool traced, double speed_factor) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, int64_t> failures_;  // reason -> count
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// --- tracing ----------------------------------------------------------------

// Spans recorded around calls into the program's public API, all from the
// generator (main) thread. Disabled traces record nothing, so the untraced
// run pays one branch per call site.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  // Records [start, end) under `name`; returns the span id (-1 when off).
  // `request` groups the spans of one request or frame.
  int64_t span(const char* name, Clock::time_point start,
               Clock::time_point end, int64_t parent = -1,
               int64_t request = -1);
  size_t size() const;
  // Writes every span as one JSON array to `path`.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_ms, end_ms;
    int64_t parent, request;
  };
  const bool enabled_;
  const Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- served requests and frames ---------------------------------------------

// Timings of the requests (or stream frames) that resolved correctly.
// Latency runs from the due time; the completion instant is submit +
// queue_ms + run_ms as the server stamps them, so a slow reader never
// inflates a request's latency.
struct Served {
  std::vector<double> latency_ms, queue_ms, run_ms, lag_ms;
  std::vector<Clock::time_point> done;  // completion instants
  int64_t ok = 0;

  // Records one item under trace root span `kind` with request id `id`.
  void add(Clock::time_point due, Clock::time_point submitted,
           const serve::InferResult& r, int64_t id, const char* kind,
           Trace& trace);
};

// --- models -----------------------------------------------------------------

// Benchmark-owned artifact cache, keyed by the training thread count.
std::string cache_dir(const Args& args);
// Trains and caches every model the workloads use (no-op when cached) and
// prints each one's training time and fingerprint.
void prepare_models(const Args& args);

// One model with its data, significance analysis and skip masks. Heap
// only: the pipeline holds pointers into the object.
struct ModelSetup {
  QModel model;
  SynthCifar data;
  Dataset eval;  // the pipeline's eval set when a subset was asked for
  std::unique_ptr<AtamanPipeline> pipeline;
  std::map<double, SkipMask> masks;  // uniform tau -> mask
  double quant_load_s = 0, data_synth_s = 0, analyze_s = 0;

  const SkipMask* mask(double tau) const {
    return tau < 0 ? nullptr : &masks.at(tau);
  }
};

// Loads `spec` from the cache (prepare_models filled it), makes
// its data, runs analyze() and builds a mask for each tau in `taus`. With
// `eval_images` > 0 the pipeline evaluates the first `eval_images` test
// images in an order shuffled by `eval_seed`; otherwise the whole split.
std::unique_ptr<ModelSetup> load_model(const Args& args, const ZooSpec& spec,
                                       const std::vector<double>& taus,
                                       Trace& trace,
                                       const PipelineOptions& options = {},
                                       int eval_images = 0,
                                       uint64_t eval_seed = 0);
// Prints MACs, a hash of the serialized .qm bytes and exact accuracy.
void print_fingerprint(const Args& args, const ModelSetup& setup);

// Engine config label used in metric names: "exact" or "tau0.05".
std::string config_label(double tau);

// Runs `build` kSetupReps times (each rep replaces the last bed), with a
// calibration burst after each, and reports the median set-up time and its
// split; returns the last bed. `Bed` holds its model set-up in a member `m`.
template <class Bed, class Build>
std::unique_ptr<Bed> timed_setup(const Build& build, HostSpeed& host,
                                 Report& report) {
  std::vector<double> total, load, synth, analyze;
  std::unique_ptr<Bed> bed;
  for (int i = 0; i < kSetupReps; ++i) {
    bed.reset();
    const auto t0 = Clock::now();
    bed = build();
    total.push_back(ms_between(t0, Clock::now()) / 1e3);
    host.burst();
    load.push_back(bed->m->quant_load_s);
    synth.push_back(bed->m->data_synth_s);
    analyze.push_back(bed->m->analyze_s);
  }
  report.set("setup_s", median(total));
  report.set("quant.load_s", median(load));
  report.set("data.synth_s", median(synth));
  report.set("sig.analyze_s", median(analyze));
  report.samples("setup_s (median of set-ups)", kSetupReps);
  reset_peak_rss();
  return bed;
}

// --- the LeNet design space ------------------------------------------------

// Uniform-tau configs on a fixed eval budget: the first kDseEvalImages test
// images, shuffled once by kDseEvalOrder (a seeded order would change the
// early exits, and with them the sweep's work).
inline constexpr int kDseEvalImages = 96;
inline constexpr uint64_t kDseEvalOrder = 0xE7A1;
PipelineOptions lenet_dse_options();
// Everything a repeated sweep must reproduce exactly.
bool same_outcome(const DseOutcome& a, const DseOutcome& b);

// --- workloads and probes ---------------------------------------------------

void run_serve_saturated(const Args& args, HostSpeed& host, Report& report,
                         Trace& trace);
void run_dse_lenet(const Args& args, HostSpeed& host, Report& report,
                   Trace& trace);

// The stream.* layer metrics and serve.gen_lag_ms.p99 from a short
// open-loop streaming phase on its own dscnn server (used by the traced
// serve_saturated run).
void probe_streams(const Args& args, Report& report, Trace& trace);

// Per-layer probes on the LeNet engine mix (engine.* and mcu.*): timed
// direct calls, with run_batch outputs checked against run().
void probe_engines(const Args& args, const ModelSetup& lenet, Report& report,
                   Trace& trace);

// The engine x config points of the LeNet serve mix plus the reference
// engine: {engine, tau} with tau < 0 = exact.
struct EngineConfigPoint {
  const char* engine;
  double tau;
};
const std::vector<EngineConfigPoint>& lenet_engine_points();

// Every metric the benchmark reports, {name, unit}, in print order. A
// traced run prints the whole per-layer catalog: a layer the workload does
// not touch reads 0 rather than going missing.
const std::vector<std::pair<std::string, std::string>>& e2e_catalog();
const std::vector<std::pair<std::string, std::string>>& layer_catalog();

}  // namespace perfbench
