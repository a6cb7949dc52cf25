// End-to-end benchmark of the ATAMAN stack: one process, one workload.
//
//   perfbench --workload <serve_saturated|dse_lenet>
//             --seed N --seconds S --trace 0|1
//             [--work-dir DIR] [--perturb-oracle] [--prepare]
//
// The last stdout line is one JSON object: {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones. Exit 0 only when every output matched its oracle.
// perfbench/README.md explains workloads, metrics and the oracle.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "src/common/parallel.hpp"
#include "src/common/serialize.hpp"

namespace {

using namespace perfbench;

// Calibration bursts before the first set-up, so every vCPU is awake and up
// to speed.
constexpr double kWarmUpMs = 1000.0;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--perturb-oracle] "
               "[--prepare]\n",
               why.c_str());
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      a.seconds = std::stoi(value());
      have_seconds = true;
    } else if (arg == "--trace") {
      a.trace = std::stoi(value()) != 0;
      have_trace = true;
    } else if (arg == "--work-dir") {
      a.work_dir = value();
    } else if (arg == "--perturb-oracle") {
      a.perturb_oracle = true;
    } else if (arg == "--prepare") {
      a.prepare_only = true;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (a.prepare_only) return a;
  if (a.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (a.seconds < 1 || a.seconds > 120) usage("--seconds must be 1..120");
  if (a.workload != "serve_saturated" && a.workload != "dse_lenet")
    usage("unknown workload " + a.workload);
  return a;
}

void print_manifest(const Args& args) {
  std::printf("[manifest] workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::string source = "unknown";
  std::ifstream in(args.work_dir + "/source.txt");
  if (in) std::getline(in, source);
  std::printf("[manifest] source=%s\n", source.c_str());
  std::printf("[manifest] compiler=%s (%s) build=%s\n", PERFBENCH_COMPILER,
              __VERSION__, PERFBENCH_BUILD_TYPE);
  std::printf("[manifest] nproc=%u serve_workers=%d generator_threads=1 "
              "max_batch=%d omp_threads=%d train_omp_threads=%d "
              "setup_reps=%d calib_ref_ms=%.1f\n",
              std::thread::hardware_concurrency(), kServeWorkers, kMaxBatch,
              bench_threads(), kTrainThreads, kSetupReps, kCalibRefMs);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    ensure_directory(args.work_dir);
    prepare_models(args);
    if (args.prepare_only) return 0;
    print_manifest(args);
    set_num_threads(bench_threads());

    Report report;
    Trace trace(args.trace);
    HostSpeed host;
    host.warm_up(kWarmUpMs);
    if (args.workload == "serve_saturated")
      run_serve_saturated(args, host, report, trace);
    else
      run_dse_lenet(args, host, report, trace);
    const std::vector<double>& bursts = host.bursts();
    report.set("host.calib_ms", median(bursts));
    std::printf("[host] calibration bursts: median %.3f ms, min %.3f, max "
                "%.3f (n=%zu; %.1f ms at reference speed)\n",
                median(bursts), *std::min_element(bursts.begin(), bursts.end()),
                *std::max_element(bursts.begin(), bursts.end()), bursts.size(),
                kCalibRefMs);
    report.set("peak_rss_mb", peak_rss_mb());
    if (args.trace) {
      report.set("trace.spans", static_cast<double>(trace.size()));
      const std::string path = args.work_dir + "/trace_" + args.workload +
                               "_" + std::to_string(args.seed) + ".json";
      trace.write(path);
      std::printf("[trace] %zu spans written to %s\n", trace.size(),
                  path.c_str());
    }
    return report.finish(args.trace, host.factor());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: FATAL: %s\n", e.what());
    return 2;
  }
}
