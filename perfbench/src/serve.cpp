// serve_saturated: LeNet served to a closed loop with a deep fixed backlog,
// so micro-batches fill.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "bench.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::InferResult;

// The traffic mix. A deployment's traffic is mostly its selected Pareto
// design, so most requests go to unpacked@tau0.05; the rest go to the
// neighbouring designs and the exact baselines.
struct ServeClass {
  const char* engine;
  double tau;  // < 0: exact
  double weight;
};
constexpr ServeClass kMix[] = {
    {"unpacked", 0.05, 0.85}, {"cmsis", -1.0, 0.01},
    {"unpacked", -1.0, 0.01}, {"xcube", -1.0, 0.01},
    {"unpacked", 0.02, 0.06}, {"unpacked", 0.08, 0.06},
};
constexpr int kClasses = static_cast<int>(std::size(kMix));
constexpr int kPoolImages = 64;  // seeded test images per run
constexpr int kBacklog = 4 * kServeWorkers * kMaxBatch;
constexpr int kSaturatedCycle = 4000;  // class sequence length, repeated
// dse_wall_s on this workload: explore() over the served designs, repeated
// this many times (median reported).
constexpr int kDesignSweeps = 9;
// The window's segments: each is drained and followed by a calibration
// burst.
constexpr double kSegmentMs = 1000.0;

struct ServeBed {
  std::unique_ptr<ModelSetup> m;
  std::unique_ptr<InferenceServer> server;
};

// Set-up: load LeNet, analyze, build the server and warm every class on
// every worker so engine prototypes and clones exist before timing.
std::unique_ptr<ServeBed> build_bed(const Args& args, Trace& trace) {
  auto bed = std::make_unique<ServeBed>();
  bed->m = load_model(args, lenet_spec(), {0.02, 0.05, 0.08}, trace,
                      lenet_dse_options(), kDseEvalImages, kDseEvalOrder);
  serve::ServeOptions options;
  options.workers = kServeWorkers;
  options.max_batch = kMaxBatch;
  bed->server = std::make_unique<InferenceServer>(&bed->m->model, options);
  const Dataset& test = bed->m->data.test;
  std::vector<InferFuture> warm;
  for (const ServeClass& c : kMix) {
    for (int i = 0; i < 2 * kServeWorkers * kMaxBatch; ++i) {
      InferRequest r;
      r.engine = c.engine;
      r.mask = bed->m->mask(c.tau);
      const auto img = test.image(i % test.size());
      r.image.assign(img.begin(), img.end());
      warm.push_back(bed->server->submit(std::move(r)));
    }
  }
  for (const InferFuture& f : warm) f.get();
  return bed;
}

// The oracle: serial run() of every (class, pool image) on a fresh
// registry engine, computed untimed. Also records modeled cycles.
struct Oracle {
  std::vector<int> images;                             // test indices
  std::vector<std::vector<std::vector<int8_t>>> want;  // [class][image]
  std::vector<int64_t> cycles;                         // per class
};

Oracle build_oracle(const Args& args, const ModelSetup& m) {
  Oracle o;
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 11);
  for (int i = 0; i < kPoolImages; ++i)
    o.images.push_back(static_cast<int>(rng.next_below(
        static_cast<uint64_t>(m.data.test.size()))));
  o.want.resize(kClasses);
  o.cycles.resize(kClasses);
  parallel_for(0, kClasses, [&](int64_t c) {
    EngineConfig cfg;
    cfg.model = &m.model;
    cfg.mask = m.mask(kMix[c].tau);
    const auto engine = EngineRegistry::instance().create(kMix[c].engine, cfg);
    o.cycles[c] = engine->total_cycles();
    for (const int idx : o.images)
      o.want[c].push_back(engine->run(m.data.test.image(idx)));
  });
  if (args.perturb_oracle) o.want[0][0][0] ^= 1;
  return o;
}

// The class of each of `n` requests: exact counts per weight (the rounding
// remainder goes to the primary class), in an order drawn from `rng`.
std::vector<int> class_sequence(Rng& rng, int n) {
  std::vector<int> seq;
  for (int c = 1; c < kClasses; ++c)
    seq.insert(seq.end(), static_cast<size_t>(std::lround(kMix[c].weight * n)),
               c);
  seq.resize(static_cast<size_t>(n), 0);
  rng.shuffle(seq);
  return seq;
}

InferRequest make_request(const ModelSetup& m, const Oracle& o, int cls,
                          int img) {
  InferRequest r;
  r.engine = kMix[cls].engine;
  r.mask = m.mask(kMix[cls].tau);
  const auto px = m.data.test.image(o.images[static_cast<size_t>(img)]);
  r.image.assign(px.begin(), px.end());
  return r;
}

// One submitted request, resolved after it was sent.
struct Sent {
  InferFuture future;
  int cls = 0, img = 0;
  bool steady = false;  // sent into a full backlog
  Clock::time_point due, submitted;
};

// Resolves `s` and checks it against the oracle; true when it matched.
bool collect(const Sent& s, const Oracle& o, int64_t id, Report& report,
             Trace& trace, Served& out) {
  InferResult r;
  try {
    r = s.future.get();
  } catch (const std::exception& e) {
    report.fail(1, std::string("request error: ") + e.what());
    return false;
  }
  if (r.logits != o.want[s.cls][s.img]) {
    report.fail(1, std::string("logits differ from serial run() on ") +
                       kMix[s.cls].engine + "." +
                       config_label(kMix[s.cls].tau));
    return false;
  }
  out.add(s.due, s.submitted, r, id, "serve.request", trace);
  return true;
}

void print_classes(const std::vector<std::vector<double>>& per_class) {
  for (int c = 0; c < kClasses; ++c)
    std::printf("[class] %s.%s: latency p50 %.4f p99 %.4f ms (n=%zu)\n",
                kMix[c].engine, config_label(kMix[c].tau).c_str(),
                percentile(per_class[c], 50), percentile(per_class[c], 99),
                per_class[c].size());
}

// The served designs: exact unpacked (0% loss by construction) and the
// primary unpacked@tau0.05, against the packed exact (cmsis) baseline.
void report_designs(const Oracle& o, Report& report) {
  const double base = static_cast<double>(o.cycles[1]);
  report.set("mcu_latency_red_0pct",
             100.0 * (1.0 - static_cast<double>(o.cycles[2]) / base));
  report.set("mcu_latency_red_5pct",
             100.0 * (1.0 - static_cast<double>(o.cycles[0]) / base));
}

// Reports latency_p50/p99_ms from `s`, plus the serve.* layer metrics
// from `s` and from the server's counters over the window.
void report_served(const Served& s, const serve::ServeStats& before,
                   const serve::ServeStats& after, Report& report) {
  report.set("latency_p50_ms", percentile(s.latency_ms, 50));
  report.set("latency_p99_ms", percentile(s.latency_ms, 99));
  report.samples("latency_p50_ms, latency_p99_ms (nearest rank)",
                 static_cast<int64_t>(s.latency_ms.size()));
  report.set("serve.queue_ms.p50", percentile(s.queue_ms, 50));
  report.set("serve.queue_ms.p99", percentile(s.queue_ms, 99));
  report.set("serve.run_ms.p50", percentile(s.run_ms, 50));
  report.set("serve.run_ms.p99", percentile(s.run_ms, 99));
  const int64_t batches = after.batches - before.batches;
  const int64_t done = after.completed - before.completed;
  const int64_t clones =
      after.pool.engines_cloned - before.pool.engines_cloned;
  report.set("serve.batch_fill",
             batches > 0 ? static_cast<double>(done) /
                               static_cast<double>(batches)
                         : 0.0);
  report.set("serve.pool_clones", static_cast<double>(clones));
  std::printf("[serve] window: %lld completed, %lld batches, %lld engine "
              "clones\n",
              static_cast<long long>(done), static_cast<long long>(batches),
              static_cast<long long>(clones));
}

// Re-validates the served designs (exact and the three uniform taus) with
// explore() on the DSE eval budget, as a deployment does before it swaps
// designs: dse_wall_s is the median sweep time. A calibration burst follows
// each sweep, and every sweep must reproduce the first.
void report_design_sweeps(ModelSetup& m, HostSpeed& host, Report& report,
                          Trace& trace) {
  const int n = m.model.approx_layer_count();
  std::vector<ApproxConfig> configs = {ApproxConfig::exact(n)};
  for (const double tau : {0.02, 0.05, 0.08})
    configs.push_back(ApproxConfig::uniform(n, tau));
  std::vector<double> wall_ms;
  std::vector<DseOutcome> outcomes;
  for (int i = 0; i < kDesignSweeps; ++i) {
    const auto t0 = Clock::now();
    outcomes.push_back(m.pipeline->explore(configs));
    const auto t1 = Clock::now();
    trace.span("dse.explore", t0, t1);
    wall_ms.push_back(ms_between(t0, t1));
    host.burst();
    report.attempt(1);
    if (!same_outcome(outcomes.front(), outcomes.back()))
      report.fail(1, "served-design sweep differs from the first");
  }
  report.set("dse_wall_s", median(wall_ms) / 1e3);
  report.samples("dse_wall_s (median of served-design sweeps)",
                 kDesignSweeps);
}

}  // namespace

void run_serve_saturated(const Args& args, HostSpeed& host, Report& report,
                         Trace& trace) {
  auto bed = timed_setup<ServeBed>([&] { return build_bed(args, trace); },
                                   host, report);
  print_fingerprint(args, *bed->m);
  const Oracle oracle = build_oracle(args, *bed->m);

  // Closed loop from this thread: keep kBacklog requests outstanding,
  // resolve the oldest, send the next. Due time = submit time. The window
  // is cut into segments of kSegmentMs, each drained and followed by a
  // calibration burst (HostSpeed). A segment's first kBacklog requests, sent
  // at once into an empty server, are left out of the latencies.
  Rng rng(args.seed);
  const std::vector<int> classes = class_sequence(rng, kSaturatedCycle);
  const serve::ServeStats before = bed->server->stats();
  Served served;                  // steady-state requests
  std::vector<int> steady_class;  // and their classes
  std::vector<double> segment_rps;
  int64_t id = 0, sent_count = 0;
  const Clock::time_point end =
      Clock::now() + std::chrono::seconds(args.seconds);
  while (Clock::now() < end) {
    const Clock::time_point seg_start = Clock::now();
    const Clock::time_point seg_end =
        std::min(end, plus_ms(seg_start, kSegmentMs));
    std::deque<Sent> pending;
    Served ramp;  // the segment's first kBacklog requests
    int64_t seg_sent = 0;
    const int64_t served_before = served.ok;
    Clock::time_point last_done = seg_start;
    while (true) {
      const bool open = Clock::now() < seg_end;
      while (open && static_cast<int>(pending.size()) < kBacklog) {
        Sent s;
        s.cls = classes[static_cast<size_t>(sent_count++ % kSaturatedCycle)];
        s.img = static_cast<int>(rng.next_below(kPoolImages));
        s.steady = seg_sent++ >= kBacklog;
        InferRequest r = make_request(*bed->m, oracle, s.cls, s.img);
        s.due = s.submitted = Clock::now();
        s.future = bed->server->submit(std::move(r));
        trace.span("serve.submit", s.submitted, Clock::now(), -1,
                   id + static_cast<int64_t>(pending.size()));
        pending.push_back(std::move(s));
        report.attempt(1);
      }
      if (pending.empty()) break;
      const Sent& s = pending.front();
      Served& into = s.steady ? served : ramp;
      if (collect(s, oracle, id++, report, trace, into)) {
        last_done = std::max(last_done, into.done.back());
        if (s.steady) steady_class.push_back(s.cls);
      }
      pending.pop_front();
    }
    host.burst();
    const double seg_ms = ms_between(seg_start, last_done);
    const int64_t seg_ok = served.ok - served_before + ramp.ok;
    if (seg_ms > 0.0 && seg_ok > 0)
      segment_rps.push_back(1e3 * static_cast<double>(seg_ok) / seg_ms);
  }
  std::vector<std::vector<double>> per_class(kClasses);
  for (size_t i = 0; i < served.latency_ms.size(); ++i)
    per_class[static_cast<size_t>(steady_class[i])].push_back(
        served.latency_ms[i]);
  print_classes(per_class);
  report_served(served, before, bed->server->stats(), report);
  // Throughput: the median over segments of completions per second.
  report.set("throughput_rps", median(segment_rps));
  report.samples("throughput_rps (segments of the window)",
                 static_cast<int64_t>(segment_rps.size()));
  report_designs(oracle, report);
  report_design_sweeps(*bed->m, host, report, trace);
  if (args.trace) {
    probe_engines(args, *bed->m, report, trace);
    probe_streams(args, report, trace);
  }
}

}  // namespace perfbench
