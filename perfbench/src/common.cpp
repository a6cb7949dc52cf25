#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "bench.hpp"
#include "src/common/json_lite.hpp"

namespace perfbench {

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::vector<double> ranks(const std::vector<double>& v) {
  std::vector<size_t> order(v.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> r(v.size());
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && v[order[j]] == v[order[i]]) ++j;
    const double avg = 0.5 * static_cast<double>(i + j - 1) + 1.0;
    for (size_t k = i; k < j; ++k) r[order[k]] = avg;
    i = j;
  }
  return r;
}
}  // namespace

double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  check(x.size() == y.size(), "spearman: size mismatch");
  if (x.size() < 2) return 0.0;
  const std::vector<double> rx = ranks(x), ry = ranks(y);
  const double n = static_cast<double>(x.size());
  const double mx = std::accumulate(rx.begin(), rx.end(), 0.0) / n;
  const double my = std::accumulate(ry.begin(), ry.end(), 0.0) / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < rx.size(); ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  return sxx > 0 && syy > 0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // resets VmHWM
}

// --- catalogs ---------------------------------------------------------------

std::string config_label(double tau) {
  if (tau < 0) return "exact";
  char buf[32];
  std::snprintf(buf, sizeof buf, "tau%.2f", tau);
  return buf;
}

const std::vector<EngineConfigPoint>& lenet_engine_points() {
  static const std::vector<EngineConfigPoint> points = {
      {"ref", -1.0},      {"ref", 0.05},       {"cmsis", -1.0},
      {"xcube", -1.0},    {"unpacked", -1.0},  {"unpacked", 0.02},
      {"unpacked", 0.05}, {"unpacked", 0.08},
  };
  return points;
}

using Catalog = std::vector<std::pair<std::string, std::string>>;

const Catalog& e2e_catalog() {
  static const Catalog c = {
      {"setup_s", "s"},
      {"latency_p50_ms", "ms"},
      {"latency_p99_ms", "ms"},
      {"throughput_rps", "1/s"},
      {"dse_wall_s", "s"},
      {"mcu_latency_red_0pct", "%"},
      {"mcu_latency_red_5pct", "%"},
      {"success_frac", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return c;
}

namespace {
// The power of HostSpeed::factor() an end-to-end metric carries: 1 for a
// time, -1 for a rate, 0 for the rest.
int speed_power(const std::string& name) {
  if (name == "throughput_rps") return -1;
  for (const char* t :
       {"setup_s", "latency_p50_ms", "latency_p99_ms", "dse_wall_s"})
    if (name == t) return 1;
  return 0;
}
}  // namespace

const Catalog& layer_catalog() {
  static const Catalog c = [] {
    Catalog out;
    for (const auto& p : lenet_engine_points()) {
      const std::string base =
          std::string("engine.") + p.engine + "." + config_label(p.tau);
      out.push_back({base + ".run_us", "us"});
      out.push_back({base + ".batch1_us", "us"});
      out.push_back({base + ".batch8_us_per_img", "us"});
      out.push_back({base + ".macs", "count"});
    }
    for (const auto& p : lenet_engine_points()) {
      if (std::string(p.engine) == "ref") continue;  // not modeled
      const std::string base =
          std::string("mcu.") + p.engine + "." + config_label(p.tau);
      out.push_back({base + ".cycles", "count"});
      out.push_back({base + ".flash_kb", "KB"});
      out.push_back({base + ".ram_kb", "KB"});
    }
    for (const char* e : {"cmsis", "xcube", "unpacked"})
      out.push_back({std::string("mcu.rank_corr.") + e, "ratio"});
    for (const char* m :
         {"serve.queue_ms.p50", "serve.queue_ms.p99", "serve.run_ms.p50",
          "serve.run_ms.p99", "serve.gen_lag_ms.p99"})
      out.push_back({m, "ms"});
    out.push_back({"serve.batch_fill", "count"});
    out.push_back({"serve.pool_clones", "count"});
    out.push_back({"stream.reuse_ratio", "ratio"});
    out.push_back({"stream.recomputed_macs_per_frame", "count"});
    out.push_back({"stream.incremental_frames", "count"});
    out.push_back({"stream.fallback_frames", "count"});
    out.push_back({"stream.direct_incremental_us", "us"});
    out.push_back({"stream.served_incremental_run_us", "us"});
    out.push_back({"dse.configs_per_s", "1/s"});
    out.push_back({"dse.images_evaluated", "count"});
    out.push_back({"dse.useful_ratio", "ratio"});
    out.push_back({"dse.cache_hits", "count"});
    out.push_back({"dse.early_exits", "count"});
    out.push_back({"dse.evaluate_static_us", "us"});
    out.push_back({"sig.analyze_s", "s"});
    out.push_back({"quant.load_s", "s"});
    out.push_back({"data.synth_s", "s"});
    out.push_back({"host.calib_ms", "ms"});
    out.push_back({"trace.spans", "count"});
    return out;
  }();
  return c;
}

// --- report -----------------------------------------------------------------

namespace {
bool in_catalog(const Catalog& c, const std::string& name) {
  return std::any_of(c.begin(), c.end(),
                     [&](const auto& m) { return m.first == name; });
}
}  // namespace

void Report::set(const std::string& name, double value) {
  check(in_catalog(e2e_catalog(), name) || in_catalog(layer_catalog(), name),
        "perfbench: metric '" + name + "' is in no catalog");
  check(std::isfinite(value), "perfbench: metric '" + name + "' not finite");
  values_[name] = value;
}

void Report::samples(const std::string& what, int64_t count) {
  std::printf("[samples] %s: n=%lld\n", what.c_str(),
              static_cast<long long>(count));
}

void Report::fail(int64_t n, const std::string& why) {
  if (n <= 0) return;
  failed_ += n;
  failures_[why] += n;
}

int Report::finish(bool traced, double speed_factor) const {
  const Catalog& catalog = traced ? layer_catalog() : e2e_catalog();
  const auto scaled = [&](const std::string& name, double v) {
    return v * std::pow(speed_factor, speed_power(name));
  };
  std::printf("[host] speed factor %.6f\n", speed_factor);
  for (const auto& [name, unit] : e2e_catalog()) {
    const auto it = values_.find(name);
    if (it == values_.end() || speed_power(name) == 0) continue;
    std::printf("[raw] %s = %.6f %s (wall clock)\n", name.c_str(),
                it->second, unit.c_str());
    // In a traced run: its difference from an untraced run of the same
    // seed is the tracing overhead.
    if (traced)
      std::printf("[traced end-to-end] %s = %.6f %s\n", name.c_str(),
                  scaled(name, it->second), unit.c_str());
  }
  JsonObject metrics;
  std::printf("---- %s metrics ----\n", traced ? "per-layer" : "end-to-end");
  for (const auto& [name, unit] : catalog) {
    const auto it = values_.find(name);
    double v = it == values_.end() ? 0.0 : it->second;
    if (name == "success_frac") {
      v = attempted_ > 0 ? 1.0 - static_cast<double>(failed_) /
                                     static_cast<double>(attempted_)
                         : 0.0;
    } else {
      check(traced || it != values_.end(),
            "perfbench: end-to-end metric '" + name + "' was not measured");
    }
    if (!traced) v = scaled(name, v);
    std::printf("  %-40s %16.6f %s\n", name.c_str(), v, unit.c_str());
    metrics[name] = Json(JsonObject{{"value", Json(v)}, {"unit", Json(unit)}});
  }
  for (const auto& [why, n] : failures_)
    std::printf("[FAILED] %lld x %s\n", static_cast<long long>(n),
                why.c_str());
  const bool correct = failed_ == 0;
  std::printf("[result] attempted=%lld failed=%lld failed_frac=%.6f\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 1.0);
  const Json line(JsonObject{
      {"correct", Json(correct)},
      {"attempted", Json(attempted_)},
      {"failed", Json(failed_)},
      {"metrics", Json(std::move(metrics))},
  });
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
  return correct && attempted_ > 0 ? 0 : 1;
}

// --- served requests and frames ---------------------------------------------

void Served::add(Clock::time_point due, Clock::time_point submitted,
                 const serve::InferResult& r, int64_t id, const char* kind,
                 Trace& trace) {
  ++ok;
  const double lag = ms_between(due, submitted);
  lag_ms.push_back(lag);
  queue_ms.push_back(r.queue_ms);
  run_ms.push_back(r.run_ms);
  latency_ms.push_back(lag + r.queue_ms + r.run_ms);
  const Clock::time_point started = plus_ms(submitted, r.queue_ms);
  const Clock::time_point done = plus_ms(started, r.run_ms);
  this->done.push_back(done);
  if (trace.enabled()) {
    const int64_t root = trace.span(kind, due, done, -1, id);
    trace.span("serve.gen_lag", due, submitted, root, id);
    trace.span("serve.queue", submitted, started, root, id);
    trace.span("serve.run", started, done, root, id);
  }
}

// --- trace ------------------------------------------------------------------

int64_t Trace::span(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t parent, int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, ms_between(origin_, start), ms_between(origin_, end),
                    parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Trace::size() const { return spans_.size(); }

void Trace::write(const std::string& path) const {
  std::ofstream out(path);
  check(static_cast<bool>(out), "perfbench: cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,"
                  "\"end_ms\":%.6f,\"parent\":%lld,\"request\":%lld}%s\n",
                  i, s.name, s.start_ms, s.end_ms,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
}

}  // namespace perfbench
