// dse_lenet: analyze() + explore() on LeNet with a fixed uniform-tau
// config list and a fixed eval budget, then select() at 0% and 5% loss.
// The seed shuffles the config order, which may not change what the sweep
// selects; the eval images are fixed (see kDseEvalOrder).
//
// The window repeats the sweep. Each sweep is one request from a designer,
// so latency_p50/p99_ms are over sweeps: p50 is about dse_wall_s in ms, and
// p99 is the slowest sweep of the run. Short single-design evaluate()
// queries would give more samples, but with under 100 of them per run the
// p99 is the slowest query, which a single host stall decides.
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"

namespace perfbench {

namespace {

// 22 configs: a sweep takes about 2 s, so a 30 s window holds about 12.
constexpr double kTauStep = 0.04;

struct DseBed {
  std::unique_ptr<ModelSetup> m;
};

}  // namespace

PipelineOptions lenet_dse_options() {
  PipelineOptions o;
  o.dse.mode = DseMode::kUniformTauBySubset;
  o.dse.tau_min = 0.0;
  o.dse.tau_max = 0.1;
  o.dse.tau_step = kTauStep;
  o.dse.eval_images = kDseEvalImages;
  return o;
}

bool same_outcome(const DseOutcome& a, const DseOutcome& b) {
  if (a.results.size() != b.results.size() || a.pareto != b.pareto ||
      a.cache_hits != b.cache_hits ||
      a.images_evaluated != b.images_evaluated ||
      a.early_exits != b.early_exits)
    return false;
  for (size_t i = 0; i < a.results.size(); ++i) {
    const DseResult &x = a.results[i], &y = b.results[i];
    if (x.accuracy != y.accuracy || x.cycles != y.cycles ||
        x.partial_eval != y.partial_eval || x.flash_bytes != y.flash_bytes)
      return false;
  }
  return true;
}

void run_dse_lenet(const Args& args, HostSpeed& host, Report& report,
                   Trace& trace) {
  std::printf("[dse] OpenMP threads=%d eval_images=%d tau_step=%.3f\n",
              num_threads(), kDseEvalImages, kTauStep);

  auto bed = timed_setup<DseBed>(
      [&] {
        auto b = std::make_unique<DseBed>();
        b->m = load_model(args, lenet_spec(), {}, trace, lenet_dse_options(),
                          kDseEvalImages, kDseEvalOrder);
        return b;
      },
      host, report);
  ModelSetup& m = *bed->m;
  print_fingerprint(args, m);
  AtamanPipeline& pipe = *m.pipeline;

  std::vector<ApproxConfig> configs =
      generate_configs(m.model.approx_layer_count(), lenet_dse_options().dse);
  {
    // configs[0] must stay the exact baseline.
    std::vector<ApproxConfig> rest(configs.begin() + 1, configs.end());
    Rng rng(args.seed ^ 0xD5E5EEDULL);
    rng.shuffle(rest);
    std::copy(rest.begin(), rest.end(), configs.begin() + 1);
  }
  const int64_t n_configs = static_cast<int64_t>(configs.size());

  // A calibration burst (HostSpeed) follows each sweep. Every sweep must
  // repeat the first.
  DseOutcome outcome;
  std::vector<double> wall_ms;
  const Clock::time_point end =
      Clock::now() + std::chrono::seconds(args.seconds);
  host.burst();
  do {
    const auto t0 = Clock::now();
    DseOutcome swept = pipe.explore(configs);
    const auto t1 = Clock::now();
    trace.span("dse.explore", t0, t1);
    wall_ms.push_back(ms_between(t0, t1));
    host.burst();
    report.attempt(n_configs);
    if (wall_ms.size() == 1) {
      outcome = std::move(swept);
    } else if (!same_outcome(outcome, swept)) {
      report.fail(n_configs, "sweep repetition differs from the first");
    }
  } while (Clock::now() + std::chrono::duration<double, std::milli>(
                              median(wall_ms)) <
           end);
  const double wall_s = median(wall_ms) / 1e3;
  report.set("dse_wall_s", wall_s);
  report.set("latency_p50_ms", percentile(wall_ms, 50));
  report.set("latency_p99_ms", percentile(wall_ms, 99));
  report.samples("dse_wall_s, latency_p50_ms, latency_p99_ms (sweeps)",
                 static_cast<int64_t>(wall_ms.size()));
  const double images = static_cast<double>(outcome.images_evaluated);
  report.set("throughput_rps", images / wall_s);
  report.samples("throughput_rps (images evaluated per second of sweep)",
                 static_cast<int64_t>(wall_ms.size()));

  // The exact baseline and the designs select() picks are re-checked by
  // ConfigEvaluator::evaluate on the full budget.
  const ConfigEvaluator evaluator(&m.model, &pipe.significance(), &m.eval,
                                  kDseEvalImages, pipe.options().costs,
                                  pipe.options().memory);
  const auto recheck = [&](int idx, const char* what) {
    report.attempt(1);
    if (idx < 0) {
      report.fail(1, std::string("select() found no design at ") + what);
      return;
    }
    const DseResult& got = outcome.results[static_cast<size_t>(idx)];
    const DseResult want = evaluator.evaluate(got.config);
    const double want_acc = want.accuracy + (args.perturb_oracle ? 1e-3 : 0.0);
    if (got.accuracy != want_acc || got.cycles != want.cycles ||
        got.partial_eval)
      report.fail(1, std::string("sweep result differs from evaluate() at ") +
                         what);
  };
  const int sel0 = pipe.select(outcome, 0.0);
  const int sel5 = pipe.select(outcome, 0.05);
  recheck(0, "the exact baseline");
  recheck(sel0, "0% loss");
  recheck(sel5, "5% loss");
  const auto red = [&](int idx) {
    return idx < 0 ? 0.0
                   : 100.0 * outcome.results[static_cast<size_t>(idx)]
                                 .latency_reduction;
  };
  report.set("mcu_latency_red_0pct", red(sel0));
  report.set("mcu_latency_red_5pct", red(sel5));
  if (sel0 >= 0 && sel5 >= 0)
    std::printf("[dse] %lld configs; exact top1 %.4f; 0%%: %s top1 %.4f; "
                "5%%: %s top1 %.4f\n",
                static_cast<long long>(n_configs), outcome.exact_accuracy,
                outcome.results[static_cast<size_t>(sel0)]
                    .config.to_string().c_str(),
                outcome.results[static_cast<size_t>(sel0)].accuracy,
                outcome.results[static_cast<size_t>(sel5)]
                    .config.to_string().c_str(),
                outcome.results[static_cast<size_t>(sel5)].accuracy);

  report.set("dse.configs_per_s", static_cast<double>(n_configs) / wall_s);
  report.set("dse.images_evaluated",
             static_cast<double>(outcome.images_evaluated));
  report.set("dse.useful_ratio",
             static_cast<double>(outcome.images_evaluated) /
                 static_cast<double>(n_configs * kDseEvalImages));
  report.set("dse.cache_hits", static_cast<double>(outcome.cache_hits));
  report.set("dse.early_exits", static_cast<double>(outcome.early_exits));
  std::printf("[dse] images_evaluated=%lld cache_hits=%lld early_exits=%d\n",
              static_cast<long long>(outcome.images_evaluated),
              static_cast<long long>(outcome.cache_hits), outcome.early_exits);

  if (!args.trace) return;
  std::vector<double> static_us;
  for (const ApproxConfig& c : configs) {
    const auto t0 = Clock::now();
    const DseResult r = evaluator.evaluate_static(c);
    const auto t1 = Clock::now();
    check(r.cycles > 0, "evaluate_static priced no cycles");
    trace.span("dse.evaluate_static", t0, t1);
    static_us.push_back(ms_between(t0, t1) * 1e3);
  }
  report.set("dse.evaluate_static_us", median(static_us));
  report.samples("dse.evaluate_static_us",
                 static_cast<int64_t>(static_us.size()));
  const auto lenet = load_model(args, lenet_spec(), {0.02, 0.05, 0.08}, trace);
  probe_engines(args, *lenet, report, trace);
}

}  // namespace perfbench
