// Per-layer probes on the LeNet engine mix: timed direct calls into
// InferenceEngine::run / run_batch and the modeled-cost accessors. Every
// probe output is checked against run() on the same engine.
#include <span>

#include "bench.hpp"
#include "src/common/rng.hpp"

namespace perfbench {

namespace {

constexpr int kProbeImages = 8;
constexpr int kReps = 16;       // timed calls per probe (median reported)
constexpr int kPrefixReps = 7;  // timed run() calls per prefix model

template <class F>
double median_us(Trace& trace, const char* span, int reps, const F& call) {
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    call(r);
    const auto t1 = Clock::now();
    trace.span(span, t0, t1);
    us.push_back(ms_between(t0, t1) * 1e3);
  }
  return median(us);
}

// Rank correlation, over layers, of the host time a layer adds to run()
// against the modeled cycles it adds: each layer's share is the difference
// between the model cut after it and the model cut before it.
double layer_rank_corr(const QModel& model, const char* engine_name,
                       std::span<const uint8_t> image, Trace& trace) {
  std::vector<double> host_us, cycles;
  double prev_us = 0.0, prev_cycles = 0.0;
  for (size_t k = 1; k <= model.layers.size(); ++k) {
    QModel prefix = model;
    prefix.layers.resize(k);
    if (!prefix.layer_inputs.empty()) prefix.layer_inputs.resize(k);
    EngineConfig cfg;
    cfg.model = &prefix;
    const auto engine = EngineRegistry::instance().create(engine_name, cfg);
    engine->run(image);  // warm
    const double us = median_us(trace, "mcu.prefix_run", kPrefixReps,
                                [&](int) { engine->run(image); });
    const double cyc = static_cast<double>(engine->total_cycles());
    host_us.push_back(us - prev_us);
    cycles.push_back(cyc - prev_cycles);
    prev_us = us;
    prev_cycles = cyc;
  }
  return spearman(host_us, cycles);
}

}  // namespace

void probe_engines(const Args& args, const ModelSetup& m, Report& report,
                   Trace& trace) {
  Rng rng(args.seed + 99);
  std::vector<std::span<const uint8_t>> images;
  for (int i = 0; i < kProbeImages; ++i)
    images.push_back(m.data.test.image(static_cast<int>(
        rng.next_below(static_cast<uint64_t>(m.data.test.size())))));

  for (const EngineConfigPoint& p : lenet_engine_points()) {
    const std::string label = std::string(p.engine) + "." + config_label(p.tau);
    EngineConfig cfg;
    cfg.model = &m.model;
    cfg.mask = m.mask(p.tau);
    const auto engine = EngineRegistry::instance().create(p.engine, cfg);
    std::vector<std::vector<int8_t>> want;
    for (const auto& img : images) want.push_back(engine->run(img));

    int64_t mismatches = 0;
    std::vector<std::vector<int8_t>> out;
    const double run_us = median_us(trace, "engine.run", kReps, [&](int r) {
      const size_t i = static_cast<size_t>(r % kProbeImages);
      mismatches += engine->run(images[i]) != want[i];
    });
    const double batch1_us =
        median_us(trace, "engine.run_batch1", kReps, [&](int r) {
          const size_t i = static_cast<size_t>(r % kProbeImages);
          engine->run_batch(std::span(&images[i], 1), out);
          mismatches += out[0] != want[i];
        });
    const double batch8_us =
        median_us(trace, "engine.run_batch8", kReps, [&](int) {
          engine->run_batch(images, out);
          for (size_t i = 0; i < images.size(); ++i)
            mismatches += out[i] != want[i];
        });
    report.attempt(kReps * (2 + kProbeImages));
    report.fail(mismatches, "engine probe output differs from run() on " +
                                label);
    const std::string e = "engine." + label;
    report.set(e + ".run_us", run_us);
    report.set(e + ".batch1_us", batch1_us);
    report.set(e + ".batch8_us_per_img", batch8_us / kProbeImages);
    report.set(e + ".macs", static_cast<double>(engine->mac_ops()));
    if (std::string(p.engine) != "ref") {
      const std::string mc = "mcu." + label;
      report.set(mc + ".cycles", static_cast<double>(engine->total_cycles()));
      report.set(mc + ".flash_kb",
                 static_cast<double>(engine->flash_bytes()) / 1024.0);
      report.set(mc + ".ram_kb",
                 static_cast<double>(engine->ram_bytes()) / 1024.0);
    }
  }
  report.samples("engine.* timings (median of calls per point)", kReps);
  for (const char* e : {"cmsis", "xcube", "unpacked"})
    report.set(std::string("mcu.rank_corr.") + e,
               layer_rank_corr(m.model, e, images[0], trace));
  report.samples("mcu.rank_corr.* (layers ranked)",
                 static_cast<int64_t>(m.model.layers.size()));
}

}  // namespace perfbench
