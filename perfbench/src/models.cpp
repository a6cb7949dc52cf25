#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "src/common/json_lite.hpp"
#include "src/common/parallel.hpp"
#include "src/common/serialize.hpp"
#include "src/common/rng.hpp"
#include "src/common/stopwatch.hpp"
#include "src/core/eval.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

// FNV-1a over the serialized model: the bytes a .qm artifact holds.
uint64_t qmodel_hash(const Args& args, const QModel& model) {
  const std::string path = args.work_dir + "/fingerprint.qm.tmp";
  save_qmodel(model, path);
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  fs::remove(path);
  uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string fingerprint_path(const Args& args, const std::string& arch) {
  return cache_dir(args) + "/" + arch + ".fingerprint.json";
}

std::string hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string cache_dir(const Args& args) {
  return args.work_dir + "/cache/train-omp" + std::to_string(kTrainThreads);
}

void prepare_models(const Args& args) {
  const std::string dir = cache_dir(args);
  ensure_directory(dir);
  for (const ZooSpec& spec : {lenet_spec(), dscnn_spec()}) {
    const std::string arch = spec.arch.name;
    if (file_exists(fingerprint_path(args, arch))) continue;
    // Training is the one step whose result depends on the thread count.
    set_num_threads(kTrainThreads);
    check(num_threads() == kTrainThreads,
          "perfbench: training needs an OpenMP team of " +
              std::to_string(kTrainThreads) + " threads");
    Stopwatch watch;
    const QModel model = get_or_build_qmodel(spec, dir);
    const double train_s = watch.seconds();
    set_num_threads(0);
    // Exact accuracy on the whole test split, measured once here.
    const SynthCifar data = make_synth_cifar(spec.data);
    EngineConfig cfg;
    cfg.model = &model;
    const auto ref = EngineRegistry::instance().create("ref", cfg);
    const BatchAccuracy acc = evaluate_batch(*ref, data.test);
    const Json fp(JsonObject{
        {"model", Json(arch)},
        {"macs", Json(model.mac_count())},
        {"qm_fnv1a64", Json(hex(qmodel_hash(args, model)))},
        {"exact_top1", Json(acc.top1)},
        {"test_images", Json(acc.images)},
        {"train_s", Json(train_s)},
        {"train_threads", Json(kTrainThreads)},
    });
    std::ofstream(fingerprint_path(args, arch)) << fp.dump() << "\n";
    std::printf("[prepare] %s trained+quantized in %.1f s (not part of "
                "setup_s)\n",
                arch.c_str(), train_s);
  }
}

std::unique_ptr<ModelSetup> load_model(const Args& args, const ZooSpec& spec,
                                       const std::vector<double>& taus,
                                       Trace& trace,
                                       const PipelineOptions& options,
                                       int eval_images, uint64_t eval_seed) {
  auto s = std::make_unique<ModelSetup>();
  auto t0 = Clock::now();
  s->model = get_or_build_qmodel(spec, cache_dir(args));
  auto t1 = Clock::now();
  trace.span("quant.load", t0, t1);
  s->quant_load_s = ms_between(t0, t1) / 1e3;

  s->data = make_synth_cifar(spec.data);
  t0 = Clock::now();
  trace.span("data.synth", t1, t0);
  s->data_synth_s = ms_between(t1, t0) / 1e3;

  if (eval_images > 0) {
    s->eval = s->data.test.head(eval_images);
    Rng rng(eval_seed);
    s->eval.shuffle(rng);
  }
  s->pipeline = std::make_unique<AtamanPipeline>(
      &s->model, &s->data.train,
      eval_images > 0 ? &s->eval : &s->data.test, options);
  s->pipeline->analyze();
  for (const double tau : taus) {
    s->masks.emplace(tau, s->pipeline->mask_for(ApproxConfig::uniform(
                              s->model.approx_layer_count(), tau)));
  }
  t1 = Clock::now();
  trace.span("sig.analyze", t0, t1);
  s->analyze_s = ms_between(t0, t1) / 1e3;
  return s;
}

void print_fingerprint(const Args& args, const ModelSetup& setup) {
  const std::string arch = setup.model.name;
  std::ifstream in(fingerprint_path(args, arch));
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const Json fp = Json::parse(text);
  const std::string now = hex(qmodel_hash(args, setup.model));
  check(now == fp.at("qm_fnv1a64").as_string(),
        "perfbench: " + arch + " .qm hash changed since it was cached");
  std::printf("[model] %s: macs=%lld qm_fnv1a64=%s exact_top1=%.4f "
              "(%lld test images) train_s=%.1f train_threads=%lld\n",
              arch.c_str(), static_cast<long long>(setup.model.mac_count()),
              now.c_str(), fp.at("exact_top1").as_number(),
              static_cast<long long>(fp.at("test_images").as_int()),
              fp.at("train_s").as_number(),
              static_cast<long long>(fp.at("train_threads").as_int()));
}

}  // namespace perfbench
