// Streaming through the server, for the stream.* layer metrics of a traced
// serve_saturated run: three dscnn sessions push stride-2 column frames
// open-loop every 10 ms each. Two sessions run the reference engine
// (incremental splice via run_incremental), one runs unpacked@tau0.05
// (full-recompute fallback).
#include <algorithm>
#include <cstdio>

#include "bench.hpp"
#include "src/common/parallel.hpp"
#include "src/data/frame_stream.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferResult;
using serve::StreamSession;

constexpr double kFramePeriodMs = 10.0;
constexpr int kStreamProbeSeconds = 3;
constexpr int kStride = 2;
struct SessionSpec {
  const char* engine;
  double tau;  // < 0: exact
};
constexpr SessionSpec kSessions[] = {
    {"ref", -1.0}, {"ref", -1.0}, {"unpacked", 0.05}};
constexpr int kSessionCount = static_cast<int>(std::size(kSessions));

struct StreamBed {
  std::unique_ptr<ModelSetup> m;
  std::unique_ptr<InferenceServer> server;
};

FrameStream make_stream(const ModelSetup& m, int frames, uint64_t seed) {
  FrameStreamSpec spec;
  spec.shape = m.data.test.shape();
  spec.frames = frames;
  spec.stride_cols = kStride;
  spec.seed = seed;
  return FrameStream(spec);
}

// Set-up: load dscnn, analyze (for the tau0.05 mask), build the server and
// warm each session configuration on every worker.
std::unique_ptr<StreamBed> build_bed(const Args& args, Trace& trace) {
  auto bed = std::make_unique<StreamBed>();
  bed->m = load_model(args, dscnn_spec(), {0.05}, trace);
  serve::ServeOptions options;
  options.workers = kServeWorkers;
  options.max_batch = kMaxBatch;
  bed->server = std::make_unique<InferenceServer>(&bed->m->model, options);
  const FrameStream warm_stream = make_stream(*bed->m, 8, 7);
  std::vector<InferFuture> warm;
  for (const SessionSpec& s : kSessions) {
    serve::StreamSessionOptions opts;
    opts.engine = s.engine;
    opts.mask = bed->m->mask(s.tau);
    for (int w = 0; w < kServeWorkers; ++w) {
      const auto session = bed->server->open_session(opts);
      for (int i = 0; i < warm_stream.frames(); ++i)
        warm.push_back(
            bed->server->push_frame(session, warm_stream.new_columns(i)));
    }
  }
  for (const InferFuture& f : warm) f.get();
  return bed;
}

// Streams for kStreamProbeSeconds through `bed` and reports the stream.*
// layer metrics and the generator's lateness.
void stream_phase(const Args& args, const StreamBed& bed, Report& report,
                  Trace& trace) {
  const ModelSetup& m = *bed.m;
  // Inputs: one seeded stream per session, long enough for the window.
  const int frames =
      static_cast<int>(kStreamProbeSeconds * 1e3 / kFramePeriodMs) + 1;
  std::vector<FrameStream> streams;
  for (int k = 0; k < kSessionCount; ++k)
    streams.push_back(make_stream(m, frames, args.seed * 3 + k + 1));

  // Oracle, untimed: run() on every assembled window, per session config.
  std::vector<std::vector<std::vector<int8_t>>> want(kSessionCount);
  for (auto& w : want) w.resize(static_cast<size_t>(frames));
  constexpr int kChunks = 4;
  parallel_for(0, kSessionCount * kChunks, [&](int64_t task) {
    const int k = static_cast<int>(task / kChunks);
    const int chunk = static_cast<int>(task % kChunks);
    EngineConfig cfg;
    cfg.model = &m.model;
    cfg.mask = m.mask(kSessions[k].tau);
    const auto engine =
        EngineRegistry::instance().create(kSessions[k].engine, cfg);
    for (int i = chunk; i < frames; i += kChunks)
      want[k][i] = engine->run(streams[k].frame(i));
  });
  if (args.perturb_oracle) want[0][frames / 2][0] ^= 1;

  // Open-loop schedule: session k pushes frame i at k*period/3 + i*period.
  struct Event {
    double due_ms;
    int session, frame;
  };
  std::vector<Event> events;
  for (int k = 0; k < kSessionCount; ++k)
    for (int i = 0; i < frames; ++i)
      events.push_back({kFramePeriodMs * (i + static_cast<double>(k) /
                                                  kSessionCount),
                        k, i});
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.due_ms < b.due_ms; });
  report.attempt(static_cast<int64_t>(events.size()));

  std::vector<std::shared_ptr<StreamSession>> sessions;
  for (const SessionSpec& s : kSessions) {
    serve::StreamSessionOptions opts;
    opts.engine = s.engine;
    opts.mask = m.mask(s.tau);
    sessions.push_back(bed.server->open_session(opts));
  }
  struct Sent {
    InferFuture future;
    Clock::time_point due, submitted;
  };
  std::vector<Sent> sent;
  sent.reserve(events.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    std::vector<uint8_t> columns = streams[e.session].new_columns(e.frame);
    Sent s;
    s.due = plus_ms(start, e.due_ms);
    wait_until(s.due);
    s.submitted = Clock::now();
    s.future = bed.server->push_frame(sessions[e.session], std::move(columns));
    trace.span("stream.push_frame", s.submitted, Clock::now(), -1,
               static_cast<int64_t>(i));
    sent.push_back(std::move(s));
  }
  bed.server->drain();

  Served served;
  std::vector<std::vector<double>> per_session(kSessionCount);
  std::vector<double> ref_steady_run_us;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Event& e = events[i];
    InferResult r;
    try {
      r = sent[i].future.get();
    } catch (const std::exception& ex) {
      report.fail(1, std::string("frame error: ") + ex.what());
      continue;
    }
    if (r.logits != want[e.session][e.frame]) {
      report.fail(1, "frame logits differ from run() on the assembled window");
      continue;
    }
    served.add(sent[i].due, sent[i].submitted, r, static_cast<int64_t>(i),
               "stream.frame", trace);
    per_session[e.session].push_back(served.latency_ms.back());
    if (std::string(kSessions[e.session].engine) == "ref" && e.frame > 0)
      ref_steady_run_us.push_back(r.run_ms * 1e3);
  }
  // How late the generator pushed frames: the only open-loop traffic in
  // the benchmark.
  report.set("serve.gen_lag_ms.p99", percentile(served.lag_ms, 99));
  report.samples("serve.gen_lag_ms.p99 (stream frames)",
                 static_cast<int64_t>(served.lag_ms.size()));
  for (int k = 0; k < kSessionCount; ++k)
    std::printf("[class] session %d %s.%s: latency p50 %.4f p99 %.4f ms "
                "(n=%zu)\n",
                k, kSessions[k].engine, config_label(kSessions[k].tau).c_str(),
                percentile(per_session[k], 50), percentile(per_session[k], 99),
                per_session[k].size());

  serve::StreamSessionStats total;
  for (const auto& s : sessions) {
    const serve::StreamSessionStats st = s->stats();
    total.frames += st.frames;
    total.incremental_frames += st.incremental_frames;
    total.fallback_frames += st.fallback_frames;
    total.recomputed_macs += st.recomputed_macs;
    total.full_macs += st.full_macs;
  }
  report.set("stream.reuse_ratio", total.reuse_ratio());
  report.set("stream.recomputed_macs_per_frame",
             total.frames > 0 ? static_cast<double>(total.recomputed_macs) /
                                    static_cast<double>(total.frames)
                              : 0.0);
  report.set("stream.incremental_frames",
             static_cast<double>(total.incremental_frames));
  report.set("stream.fallback_frames",
             static_cast<double>(total.fallback_frames));
  report.set("stream.served_incremental_run_us", median(ref_steady_run_us));
  report.samples("stream.served_incremental_run_us",
                 static_cast<int64_t>(ref_steady_run_us.size()));

  // Direct run_incremental on stream 0 (no server), checked like the
  // served frames: the served-vs-direct gap is the serving overhead.
  EngineConfig cfg;
  cfg.model = &m.model;
  const auto ref = EngineRegistry::instance().create("ref", cfg);
  StreamState state;
  std::vector<double> us;
  const int n = std::min(frames, 300);
  for (int i = 0; i < n; ++i) {
    const auto columns = streams[0].new_columns(i);
    const auto t0 = Clock::now();
    const auto logits = ref->run_incremental(state, columns);
    const auto t1 = Clock::now();
    trace.span("stream.direct_incremental", t0, t1);
    if (i > 0) us.push_back(ms_between(t0, t1) * 1e3);
    report.attempt(1);
    if (logits != want[0][i])
      report.fail(1, "direct run_incremental differs from run()");
  }
  report.set("stream.direct_incremental_us", median(us));
  report.samples("stream.direct_incremental_us",
                 static_cast<int64_t>(us.size()));
}

}  // namespace

void probe_streams(const Args& args, Report& report, Trace& trace) {
  const auto bed = build_bed(args, trace);
  stream_phase(args, *bed, report, trace);
}

}  // namespace perfbench
