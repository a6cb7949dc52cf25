// Streaming sessions with temporal activation reuse: the splice-plan
// geometry (hand-computed bands + invariants), RefEngine::run_incremental
// bitwise parity with from-scratch execution, the uniform
// capability-decline error, session execution through the serve runtime
// (parity, stats, queue fairness next to one-shot traffic), and the
// steady-state cost-model / DeployReport / DSE-selector row.
//
// This suite carries the `serve-smoke` ctest label: the TSan CI job
// race-checks session workers sharing the queue with one-shot jobs.
#include <gtest/gtest.h>

#include <vector>

#include "src/data/frame_stream.hpp"
#include "src/dse/dse_io.hpp"
#include "src/dse/dse_runner.hpp"
#include "src/dse/evaluator.hpp"
#include "src/mcu/cost_model.hpp"
#include "src/mcu/stream_plan.hpp"
#include "src/serve/server.hpp"
#include "src/sig/act_stats.hpp"
#include "tests/test_util.hpp"

namespace ataman {
namespace {

using serve::InferenceServer;
using serve::InferFuture;
using serve::InferRequest;
using serve::ServeOptions;
using serve::StreamSessionOptions;
using testing::make_tiny_qmodel;
using testing::make_tiny_scored_qmodel;

// Full window of frame `index` assembled on the host — the reuse-off
// reference every streaming path must match bitwise.
std::vector<uint8_t> window_of(const FrameStream& stream, int index) {
  return stream.frame(index);
}

// --- frame stream --------------------------------------------------------

TEST(FrameStream, OverlapAndDeterminism) {
  FrameStreamSpec spec;
  spec.shape = {6, 10, 2};
  spec.frames = 5;
  spec.stride_cols = 3;
  const FrameStream a(spec);
  const FrameStream b(spec);
  EXPECT_EQ(a.total_cols(), 10 + 4 * 3);

  for (int i = 0; i < spec.frames; ++i) {
    EXPECT_EQ(a.frame(i), b.frame(i)) << "frame " << i;
    EXPECT_EQ(a.new_columns(i), b.new_columns(i)) << "frame " << i;
  }
  // new_columns(0) is the whole first window.
  EXPECT_EQ(a.new_columns(0), a.frame(0));

  // Window i shares its first w - s columns with window i-1's tail, and
  // its last s columns are exactly new_columns(i).
  const int h = spec.shape.height, w = spec.shape.width;
  const int c = spec.shape.channels, s = spec.stride_cols;
  for (int i = 1; i < spec.frames; ++i) {
    const auto prev = a.frame(i - 1);
    const auto cur = a.frame(i);
    const auto cols = a.new_columns(i);
    EXPECT_EQ(static_cast<int>(cols.size()), h * s * c);
    for (int y = 0; y < h; ++y) {
      for (int x = 0; x < w - s; ++x) {
        for (int ch = 0; ch < c; ++ch) {
          EXPECT_EQ(cur[(static_cast<size_t>(y) * w + x) * c + ch],
                    prev[(static_cast<size_t>(y) * w + x + s) * c + ch]);
        }
      }
      for (int x = 0; x < s; ++x) {
        for (int ch = 0; ch < c; ++ch) {
          EXPECT_EQ(cur[(static_cast<size_t>(y) * w + (w - s + x)) * c + ch],
                    cols[(static_cast<size_t>(y) * s + x) * c + ch]);
        }
      }
    }
  }
}

TEST(FrameStream, RejectsDegenerateSpecs) {
  FrameStreamSpec spec;
  spec.frames = 0;
  EXPECT_THROW(FrameStream{spec}, Error);
  spec.frames = 2;
  spec.stride_cols = spec.shape.width + 1;  // stride beyond the window
  EXPECT_THROW(FrameStream{spec}, Error);
}

// --- splice-plan geometry ------------------------------------------------

// Hand-computed bands for the tiny model (conv 12x12 k3 s1 p1 -> maxpool
// k2 s2 -> conv 6x6 k3 s1 p1 -> fc) at 2 columns per frame, lookback 1:
//   input band:  [0, 10), shift 2
//   conv1:  lo = ceil((0+1)/1) = 1, hi = min(floor((10+1-3)/1)+1, 12-2)
//           = min(9, 10) = 9 -> splice [1, 9), recompute 4 of 12 columns
//   pool:   propagates with p=0: lo = ceil(1/2) = 1,
//           hi = min(floor((9-2)/2)+1, 6-1) = 4 -> band [1, 4) shift 1,
//           but pools always recompute
//   conv2:  lo = ceil((1+1)/1) = 2, hi = min(floor((4+1-3)/1)+1, 6-1)
//           = 3 -> splice [2, 3), recompute 5 of 6 columns
//   fc:     full recompute, band dies
TEST(StreamPlanTest, HandComputedBandsOnTinyModel) {
  const QModel m = make_tiny_qmodel(7);
  const StreamPlan plan = plan_stream_steady(m, 2);
  ASSERT_EQ(plan.layers.size(), 4u);

  const StreamLayerPlan& c1 = plan.layers[0];
  EXPECT_TRUE(c1.spliced);
  EXPECT_EQ(c1.lookback, 1);
  EXPECT_EQ(c1.splice_lo, 1);
  EXPECT_EQ(c1.splice_hi, 9);
  EXPECT_EQ(c1.splice_shift, 2);
  EXPECT_EQ(c1.recomputed_cols, 4);
  EXPECT_EQ(c1.recomputed_positions, 4 * 12);

  const StreamLayerPlan& pool = plan.layers[1];
  EXPECT_FALSE(pool.spliced);
  EXPECT_EQ(pool.recomputed_cols, pool.out_cols);

  const StreamLayerPlan& c2 = plan.layers[2];
  EXPECT_TRUE(c2.spliced);
  EXPECT_EQ(c2.splice_lo, 2);
  EXPECT_EQ(c2.splice_hi, 3);
  EXPECT_EQ(c2.splice_shift, 1);
  EXPECT_EQ(c2.recomputed_cols, 5);

  const StreamLayerPlan& fc = plan.layers[3];
  EXPECT_FALSE(fc.spliced);
  EXPECT_EQ(fc.recomputed_macs, describe_layer(m.layers[3]).macs);

  EXPECT_GT(plan.reuse_ratio(), 1.0);
  EXPECT_EQ(plan.full_macs, m.mac_count());
  EXPECT_LT(plan.frame_macs, plan.full_macs);
}

// Shift 1 into a stride-2 pool misaligns at lookback 1 but realigns at
// lookback 2 (shift 2 over two frames) — the multi-frame ring is what
// keeps layers behind strided reductions spliceable.
TEST(StreamPlanTest, StridedPoolRealignsAtDeeperLookback) {
  const QModel m = make_tiny_qmodel(7);
  const StreamPlan plan = plan_stream_steady(m, 1);
  EXPECT_TRUE(plan.layers[0].spliced);
  EXPECT_EQ(plan.layers[0].lookback, 1);
  ASSERT_TRUE(plan.layers[2].spliced);
  EXPECT_EQ(plan.layers[2].lookback, 2);
  EXPECT_EQ(plan.layers[2].splice_shift, 1);

  // With only one retained frame the deeper lookback is unavailable and
  // conv2 must recompute in full.
  const std::vector<int> strides = {1, 1, 1, 1};
  const StreamPlan shallow = plan_stream(m, strides, /*available_lookback=*/1);
  EXPECT_TRUE(shallow.layers[0].spliced);
  EXPECT_FALSE(shallow.layers[2].spliced);
  EXPECT_GE(shallow.frame_macs, plan.frame_macs);
}

TEST(StreamPlanTest, AccountingInvariantsAcrossStrides) {
  const QModel m = make_tiny_qmodel(11);
  for (int stride = 1; stride <= m.in_w; ++stride) {
    const StreamPlan plan = plan_stream_steady(m, stride);
    int64_t macs = 0;
    for (size_t l = 0; l < plan.layers.size(); ++l) {
      const StreamLayerPlan& lp = plan.layers[l];
      EXPECT_EQ(lp.total_positions,
                static_cast<int64_t>(lp.out_rows) * lp.out_cols)
          << "stride " << stride << " layer " << l;
      EXPECT_EQ(lp.recomputed_positions,
                static_cast<int64_t>(lp.recomputed_cols) * lp.out_rows);
      if (lp.spliced) {
        EXPECT_LT(lp.splice_lo, lp.splice_hi);
        EXPECT_EQ(lp.recomputed_cols,
                  lp.out_cols - (lp.splice_hi - lp.splice_lo));
        // The splice source column must exist in the previous tensor.
        EXPECT_LE(lp.splice_hi + lp.splice_shift, lp.out_cols);
      } else {
        EXPECT_EQ(lp.recomputed_cols, lp.out_cols);
      }
      macs += lp.recomputed_macs;
    }
    EXPECT_EQ(plan.frame_macs, macs);
    EXPECT_LE(plan.frame_macs, plan.full_macs);
  }
  // A stride of the whole window leaves no overlap: nothing splices.
  const StreamPlan fresh = plan_stream_steady(m, m.in_w);
  EXPECT_EQ(fresh.frame_macs, fresh.full_macs);
  for (const StreamLayerPlan& lp : fresh.layers) EXPECT_FALSE(lp.spliced);
}

// --- run_incremental: bitwise parity -------------------------------------

TEST(RunIncremental, BitwiseParityWithFromScratchAcrossStrides) {
  const QModel m = make_tiny_qmodel(23);
  EngineConfig cfg;
  cfg.model = &m;
  const auto engine = EngineRegistry::instance().create("ref", cfg);
  ASSERT_TRUE(engine->supports_run_incremental());

  for (int stride : {1, 2, 3, 5}) {
    FrameStreamSpec spec;
    spec.shape = {m.in_h, m.in_w, m.in_c};
    spec.frames = 8;
    spec.stride_cols = stride;
    spec.seed = 100 + static_cast<uint64_t>(stride);
    const FrameStream stream(spec);

    StreamState state;
    for (int i = 0; i < spec.frames; ++i) {
      const auto logits = engine->run_incremental(state, stream.new_columns(i));
      EXPECT_EQ(logits, engine->run(window_of(stream, i)))
          << "stride " << stride << " frame " << i;
    }
    EXPECT_EQ(state.frames, spec.frames);
  }
}

TEST(RunIncremental, BitwiseParityUnderSkipMask) {
  const QModel m = make_tiny_qmodel(29);
  SkipMask mask;
  mask.masks.push_back(testing::make_random_skip(
      std::get<QConv2D>(m.layers[0]).geom, 0.4, 31));
  mask.masks.push_back(testing::make_random_skip(
      std::get<QConv2D>(m.layers[2]).geom, 0.4, 32));
  EngineConfig cfg;
  cfg.model = &m;
  cfg.mask = &mask;
  const auto engine = EngineRegistry::instance().create("ref", cfg);

  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  spec.frames = 6;
  spec.stride_cols = 2;
  const FrameStream stream(spec);

  StreamState state;
  for (int i = 0; i < spec.frames; ++i) {
    const auto logits = engine->run_incremental(state, stream.new_columns(i));
    EXPECT_EQ(logits, engine->run(window_of(stream, i))) << "frame " << i;
  }
}

TEST(RunIncremental, SteadyStateCounterMatchesSplicePlan) {
  const QModel m = make_tiny_qmodel(37);
  EngineConfig cfg;
  cfg.model = &m;
  const auto engine = EngineRegistry::instance().create("ref", cfg);

  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  spec.frames = 8;  // past the kMaxStreamLookback warmup ramp
  spec.stride_cols = 2;
  const FrameStream stream(spec);

  StreamState state;
  for (int i = 0; i < spec.frames; ++i)
    engine->run_incremental(state, stream.new_columns(i));

  const StreamPlan plan = plan_stream_steady(m, spec.stride_cols);
  EXPECT_EQ(state.last_recomputed_macs, plan.frame_macs);
  EXPECT_EQ(state.last_spliced_elems, plan.spliced_elems);
  // First frame has no history: it recomputed everything.
  EXPECT_EQ(state.total_full_macs, spec.frames * m.mac_count());
  EXPECT_GT(state.total_full_macs, state.total_recomputed_macs);
}

TEST(RunIncremental, RejectsMalformedPushes) {
  const QModel m = make_tiny_qmodel(41);
  EngineConfig cfg;
  cfg.model = &m;
  const auto engine = EngineRegistry::instance().create("ref", cfg);
  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  const FrameStream stream(spec);

  StreamState state;
  // First frame must be a full window.
  EXPECT_THROW(engine->run_incremental(state, stream.new_columns(1)), Error);
  ASSERT_EQ(state.frames, 0);
  engine->run_incremental(state, stream.new_columns(0));
  // Partial columns are rejected.
  std::vector<uint8_t> ragged(static_cast<size_t>(m.in_h * m.in_c) + 1);
  EXPECT_THROW(engine->run_incremental(state, ragged), Error);
}

// --- capability declines: one uniform message ----------------------------

TEST(CapabilityDecline, DeclinedSeamsShareTheBaseClassError) {
  const QModel m = make_tiny_qmodel(43);
  EngineConfig cfg;
  cfg.model = &m;
  // The CMSIS-style packed backend overrides none of the optional seams.
  const auto engine = EngineRegistry::instance().create("cmsis", cfg);
  ASSERT_FALSE(engine->supports_run_incremental());
  ASSERT_FALSE(engine->supports_run_from());

  StreamState state;
  const auto expect_decline = [&](auto&& call, const std::string& api) {
    try {
      call();
      FAIL() << api << " should have been declined";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("does not support " + api), std::string::npos)
          << what;
      EXPECT_NE(what.find("supports_" + api + "()"), std::string::npos)
          << what;
    }
  };
  const auto input =
      testing::make_random_image(m.in_h * m.in_w * m.in_c, 44);
  expect_decline(
      [&] { (void)engine->run_incremental(state, input); },
      "run_incremental");
  expect_decline([&] { (void)engine->run_from(0, {}); }, "run_from");
}

// --- streaming sessions through the serve runtime ------------------------

TEST(StreamSessionServe, IncrementalParityAndStats) {
  const QModel m = make_tiny_qmodel(53);
  EngineConfig cfg;
  cfg.model = &m;
  const auto oracle = EngineRegistry::instance().create("ref", cfg);

  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  spec.frames = 10;
  spec.stride_cols = 2;
  const FrameStream stream(spec);

  ServeOptions options;
  options.workers = 2;
  InferenceServer server(&m, options);
  const auto session = server.open_session();

  std::vector<InferFuture> futures;
  for (int i = 0; i < spec.frames; ++i)
    futures.push_back(server.push_frame(session, stream.new_columns(i)));
  server.drain();

  for (int i = 0; i < spec.frames; ++i) {
    const auto result = futures[static_cast<size_t>(i)].get();
    const auto expected = oracle->run(window_of(stream, i));
    EXPECT_EQ(result.logits, expected) << "frame " << i;
    EXPECT_EQ(result.top1, argmax_lowest_index(expected));
  }

  const auto session_stats = session->stats();
  EXPECT_EQ(session_stats.frames, spec.frames);
  EXPECT_EQ(session_stats.incremental_frames, spec.frames);
  EXPECT_EQ(session_stats.fallback_frames, 0);
  EXPECT_GT(session_stats.reuse_ratio(), 1.0);
  EXPECT_EQ(session_stats.full_macs, spec.frames * m.mac_count());

  const auto stats = server.stats();
  EXPECT_EQ(stats.sessions, 1);
  EXPECT_EQ(stats.session_frames, spec.frames);
  EXPECT_EQ(stats.incremental_frames, spec.frames);
}

TEST(StreamSessionServe, FallbackBackendKeepsParityWithoutReuse) {
  const QModel m = make_tiny_qmodel(59);
  EngineConfig cfg;
  cfg.model = &m;
  const auto oracle = EngineRegistry::instance().create("cmsis", cfg);

  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  spec.frames = 6;
  spec.stride_cols = 3;
  const FrameStream stream(spec);

  InferenceServer server(&m, {});
  StreamSessionOptions session_options;
  session_options.engine = "cmsis";  // declines run_incremental
  const auto session = server.open_session(session_options);

  std::vector<InferFuture> futures;
  for (int i = 0; i < spec.frames; ++i)
    futures.push_back(server.push_frame(session, stream.new_columns(i)));
  server.drain();

  for (int i = 0; i < spec.frames; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().logits,
              oracle->run(window_of(stream, i)))
        << "frame " << i;
  }
  const auto session_stats = session->stats();
  EXPECT_EQ(session_stats.fallback_frames, spec.frames);
  EXPECT_EQ(session_stats.incremental_frames, 0);
  EXPECT_DOUBLE_EQ(session_stats.reuse_ratio(), 1.0);
}

// A long-lived session sharing the queue with one-shot traffic: neither
// starves. Frames execute in push order (parity would break otherwise —
// each frame's expected logits depend on its exact window position) and
// every one-shot completes even while the session keeps pushing.
TEST(StreamSessionServe, SessionAndOneShotsShareTheQueueFairly) {
  const QModel m = make_tiny_qmodel(61);
  EngineConfig cfg;
  cfg.model = &m;
  const auto oracle = EngineRegistry::instance().create("ref", cfg);

  FrameStreamSpec spec;
  spec.shape = {m.in_h, m.in_w, m.in_c};
  spec.frames = 16;
  spec.stride_cols = 1;
  const FrameStream stream(spec);

  for (const int workers : {1, 3}) {
    ServeOptions options;
    options.workers = workers;
    options.max_batch = 4;
    InferenceServer server(&m, options);
    const auto session = server.open_session();

    std::vector<InferFuture> frames;
    std::vector<InferFuture> one_shots;
    std::vector<std::vector<uint8_t>> images;
    for (int i = 0; i < spec.frames; ++i) {
      frames.push_back(server.push_frame(session, stream.new_columns(i)));
      InferRequest r;
      r.image = testing::make_random_image(m.in_h * m.in_w * m.in_c,
                                           600 + static_cast<uint64_t>(i));
      images.push_back(r.image);
      one_shots.push_back(server.submit(std::move(r)));
    }
    server.drain();

    for (int i = 0; i < spec.frames; ++i) {
      EXPECT_EQ(frames[static_cast<size_t>(i)].get().logits,
                oracle->run(window_of(stream, i)))
          << workers << " workers, frame " << i;
      EXPECT_EQ(one_shots[static_cast<size_t>(i)].get().logits,
                oracle->run(images[static_cast<size_t>(i)]))
          << workers << " workers, one-shot " << i;
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.completed, 2 * spec.frames);
    EXPECT_EQ(stats.session_frames, spec.frames);
  }
}

TEST(StreamSessionServe, RejectsScoredHeadsAndMalformedPushes) {
  const QModel scored = make_tiny_scored_qmodel(67);
  {
    InferenceServer server(&scored, {});
    EXPECT_THROW(server.open_session(), Error);
  }

  const QModel m = make_tiny_qmodel(71);
  InferenceServer server(&m, {});
  const auto session = server.open_session();
  // First frame must be a full window; ragged pushes never enqueue.
  EXPECT_THROW(server.push_frame(session, std::vector<uint8_t>(
                   static_cast<size_t>(m.in_h * m.in_c))),
               Error);
  StreamSessionOptions bad;
  bad.engine = "no-such-backend";
  EXPECT_THROW(server.open_session(bad), Error);

  FrameStreamSpec tiny_spec;
  tiny_spec.shape = {m.in_h, m.in_w, m.in_c};
  server.push_frame(session, FrameStream(tiny_spec).frame(0));
  server.drain();
  EXPECT_EQ(session->stats().frames, 1);
}

// --- steady-state cost model / report / selector row ---------------------

TEST(StreamingCost, SteadyStateRowIsConsistentWithThePlan) {
  const QModel m = make_tiny_qmodel(73);
  const StreamingCostRow row = steady_state_stream_cost(m, 2);
  const StreamPlan plan = plan_stream_steady(m, 2);
  EXPECT_EQ(row.stride_cols, 2);
  EXPECT_EQ(row.macs_per_frame, plan.frame_macs);
  EXPECT_EQ(row.full_macs, plan.full_macs);
  EXPECT_EQ(row.spliced_elems, plan.spliced_elems);
  EXPECT_EQ(row.full_cycles, packed_model_cycles(m, {}));
  EXPECT_GT(row.cycles_per_frame, 0);
  EXPECT_LT(row.cycles_per_frame, row.full_cycles);
  EXPECT_DOUBLE_EQ(row.reuse_ratio, plan.reuse_ratio());

  // No overlap -> the streaming frame converges to the full frame plus
  // zero splice copies.
  const StreamingCostRow fresh = steady_state_stream_cost(m, m.in_w);
  EXPECT_EQ(fresh.cycles_per_frame, fresh.full_cycles);
  EXPECT_EQ(fresh.spliced_elems, 0);
}

TEST(StreamingCost, AttachStreamingRowFillsTheDeployReport) {
  const QModel m = make_tiny_qmodel(79);
  const BoardSpec board;
  DeployReport report;
  report.cycles = packed_model_cycles(m, {});
  attach_streaming_row(report, m, 2, board);
  report.finalize(board);

  EXPECT_EQ(report.stream_stride_cols, 2);
  const StreamingCostRow row = steady_state_stream_cost(m, 2);
  EXPECT_EQ(report.steady_state_cycles_per_frame, row.cycles_per_frame);
  EXPECT_DOUBLE_EQ(report.steady_state_latency_ms_per_frame,
                   board.cycles_to_ms(row.cycles_per_frame));
  // Energy follows the paper's constant-power model: ms x W == mJ.
  EXPECT_DOUBLE_EQ(report.steady_state_energy_mj_per_frame,
                   report.steady_state_latency_ms_per_frame *
                       board.active_power_w);
  EXPECT_LT(report.steady_state_energy_mj_per_frame, report.energy_mj);
  EXPECT_GT(report.stream_reuse_ratio, 1.0);
}

TEST(StreamingCost, UnpackedStreamCyclesScalePositionTermsOnly) {
  const QModel m = make_tiny_qmodel(83);
  const OpDescriptor op = describe_layer(m.layers[0]);
  const int64_t positions = op.positions;
  const int64_t pairs = 40, singles = 3;
  const int64_t full = unpacked_op_cycles(op, pairs, singles, positions);
  // Zero recomputed positions still pays the per-layer setup.
  const int64_t setup_only = unpacked_op_cycles(op, pairs, singles, 0);
  EXPECT_GT(setup_only, 0);
  EXPECT_LT(setup_only, full);
  EXPECT_THROW(unpacked_op_cycles(op, pairs, singles, positions + 1), Error);
}

TEST(StreamingDse, EvaluatorRowAndSelectorConstraint) {
  const QModel m = make_tiny_qmodel(89);
  Dataset eval(ImageShape{m.in_h, m.in_w, m.in_c}, 10);
  Rng rng(90);
  for (int i = 0; i < 16; ++i) {
    std::vector<uint8_t> img(
        static_cast<size_t>(m.in_h) * m.in_w * m.in_c);
    for (auto& p : img) p = static_cast<uint8_t>(rng.next_int(0, 255));
    eval.add(img, rng.next_int(0, 9));
  }
  const auto stats = capture_activation_stats(m, eval, 16);
  const auto sig = compute_model_significance(m, stats);

  ConfigEvaluator ev(&m, &sig, &eval, -1);
  const ApproxConfig exact = ApproxConfig::uniform(2, 0.0);

  // No stride set: the streaming row stays unmodeled.
  DseResult off = ev.evaluate_static(exact);
  EXPECT_EQ(off.stream_cycles_per_frame, 0);
  EXPECT_DOUBLE_EQ(off.stream_energy_mj_per_frame, 0.0);

  ev.set_stream_stride(2);
  DseResult on = ev.evaluate_static(exact);
  EXPECT_GT(on.stream_cycles_per_frame, 0);
  EXPECT_LT(on.stream_cycles_per_frame, on.cycles);
  EXPECT_DOUBLE_EQ(on.stream_energy_mj_per_frame,
                   BoardSpec{}.energy_mj(on.stream_cycles_per_frame));
  // The non-streaming metrics are untouched by enabling the row.
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.flash_bytes, off.flash_bytes);

  // Selector: the streaming-energy cap skips unmodeled rows and rows
  // over budget, and leaves selection unchanged when disabled.
  DseOutcome outcome;
  outcome.exact_accuracy = 0.9;
  DseResult unmodeled;  // fastest, but no streaming row
  unmodeled.accuracy = 0.9;
  unmodeled.cycles = 100;
  DseResult over;  // modeled, over the cap
  over.accuracy = 0.9;
  over.cycles = 200;
  over.stream_cycles_per_frame = 150;
  over.stream_energy_mj_per_frame = 5.0;
  DseResult within;  // modeled, within the cap
  within.accuracy = 0.9;
  within.cycles = 300;
  within.stream_cycles_per_frame = 80;
  within.stream_energy_mj_per_frame = 2.0;
  outcome.results = {unmodeled, over, within};

  EXPECT_EQ(select_design(outcome, 0.05), 0);
  EXPECT_EQ(select_design(outcome, 0.05, 0, 3.0), 2);
  EXPECT_EQ(select_design(outcome, 0.05, 0, 1.0), -1);
}

TEST(StreamingDse, IoVersion3RoundTripsTheStreamingRow) {
  DseOutcome outcome;
  outcome.exact_accuracy = 0.8;
  outcome.baseline_cycles = 1000;
  DseResult modeled;
  modeled.config = ApproxConfig::uniform(2, 0.01);
  modeled.accuracy = 0.8;
  modeled.cycles = 900;
  modeled.stream_cycles_per_frame = 400;
  modeled.stream_energy_mj_per_frame = 1.5;
  DseResult unmodeled;
  unmodeled.config = ApproxConfig::uniform(2, 0.0);
  unmodeled.accuracy = 0.8;
  unmodeled.cycles = 1000;
  outcome.results = {unmodeled, modeled};
  outcome.pareto = {0};

  const DseOutcome loaded =
      dse_outcome_from_json(dse_outcome_to_json(outcome));
  ASSERT_EQ(loaded.results.size(), 2u);
  // Absent fields (unmodeled row, and every pre-version-3 file) load 0.
  EXPECT_EQ(loaded.results[0].stream_cycles_per_frame, 0);
  EXPECT_DOUBLE_EQ(loaded.results[0].stream_energy_mj_per_frame, 0.0);
  EXPECT_EQ(loaded.results[1].stream_cycles_per_frame, 400);
  EXPECT_DOUBLE_EQ(loaded.results[1].stream_energy_mj_per_frame, 1.5);
}

}  // namespace
}  // namespace ataman
