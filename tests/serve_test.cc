#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/fake_detector.h"
#include "core/hflu.h"
#include "data/generator.h"
#include "data/split.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tests/callback_probe.h"
#include "text/features.h"

namespace fkd {
namespace serve {
namespace {

namespace ag = ::fkd::autograd;

// ---- shared trained fixture -------------------------------------------------------
//
// Training even a tiny detector dominates test runtime, so one detector is
// trained once and shared (const) by every test in the file.

struct TrainedFixture {
  data::Dataset dataset;
  graph::HeterogeneousGraph graph;
  core::FakeDetector detector;
  std::shared_ptr<const Snapshot> snapshot;
  std::string snapshot_dir;
};

core::FakeDetectorConfig TinyConfig() {
  core::FakeDetectorConfig config;
  config.epochs = 6;
  config.explicit_words = 40;
  config.latent_vocabulary = 120;
  config.hflu.max_sequence_length = 10;
  config.hflu.gru_hidden = 10;
  config.hflu.latent_dim = 8;
  config.hflu.embed_dim = 8;
  config.gdu_hidden = 12;
  config.verbose = false;
  return config;
}

const TrainedFixture& SharedFixture() {
  static TrainedFixture* fixture = [] {
    auto dataset = data::GeneratePolitiFact(data::GeneratorOptions::Scaled(60, 55));
    FKD_CHECK_OK(dataset.status());
    auto graph = dataset.value().BuildGraph();
    FKD_CHECK_OK(graph.status());
    auto* f = new TrainedFixture{std::move(dataset).value(),
                                 std::move(graph).value(),
                                 core::FakeDetector(TinyConfig()),
                                 nullptr,
                                 {}};

    Rng rng(77);
    auto splits = data::KFoldTriSplits(f->dataset.articles.size(),
                                       f->dataset.creators.size(),
                                       f->dataset.subjects.size(), 5, &rng);
    FKD_CHECK_OK(splits.status());
    eval::TrainContext context;
    context.dataset = &f->dataset;
    context.graph = &f->graph;
    context.train_articles = splits.value()[0].articles.train;
    context.train_creators = splits.value()[0].creators.train;
    context.train_subjects = splits.value()[0].subjects.train;
    context.granularity = eval::LabelGranularity::kBinary;
    context.seed = 7;
    FKD_CHECK_OK(f->detector.Train(context));

    // Per-process directory: ctest runs each test in its own process, in
    // parallel, and they must not race on one shared snapshot path.
    f->snapshot_dir = (std::filesystem::temp_directory_path() /
                       ("fkd_serve_snapshot_" + std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(f->snapshot_dir);
    FKD_CHECK_OK(ExportSnapshot(f->detector, f->snapshot_dir));
    auto loaded = LoadSnapshot(f->snapshot_dir);
    FKD_CHECK_OK(loaded.status());
    f->snapshot = std::make_shared<const Snapshot>(std::move(loaded).value());
    return f;
  }();
  return *fixture;
}

std::vector<std::string> SampleTexts(size_t n) {
  const auto& fixture = SharedFixture();
  std::vector<std::string> texts;
  for (size_t i = 0; i < n; ++i) {
    texts.push_back(fixture.dataset.articles[i % fixture.dataset.articles.size()].text);
  }
  return texts;
}

// ---- snapshot ---------------------------------------------------------------------

TEST(ServeSnapshotTest, ExportUntrainedDetectorFails) {
  core::FakeDetector untrained(TinyConfig());
  const Status status = ExportSnapshot(
      untrained,
      (std::filesystem::temp_directory_path() / "fkd_serve_untrained").string());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ServeSnapshotTest, LoadMissingDirectoryFails) {
  auto result = LoadSnapshot("/nonexistent/fkd/snapshot");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(ServeSnapshotTest, ConfigSurvivesRoundTrip) {
  const auto& fixture = SharedFixture();
  const Snapshot& snapshot = *fixture.snapshot;
  const core::FakeDetectorConfig& expect = fixture.detector.config();
  EXPECT_EQ(snapshot.num_classes, 2u);
  EXPECT_EQ(snapshot.granularity, eval::LabelGranularity::kBinary);
  EXPECT_EQ(snapshot.class_names.size(), 2u);
  EXPECT_EQ(snapshot.config.gdu_hidden, expect.gdu_hidden);
  EXPECT_EQ(snapshot.config.diffusion_steps, expect.diffusion_steps);
  EXPECT_EQ(snapshot.config.hflu.gru_hidden, expect.hflu.gru_hidden);
  EXPECT_EQ(snapshot.config.hflu.max_sequence_length,
            expect.hflu.max_sequence_length);
  EXPECT_EQ(snapshot.creator_states.rows(),
            fixture.detector.frozen_creator_states().rows());
  EXPECT_EQ(snapshot.subject_states.rows(),
            fixture.detector.frozen_subject_states().rows());
}

TEST(ServeSnapshotTest, ReloadedLogitsBitwiseIdenticalToTrainedModel) {
  const auto& fixture = SharedFixture();
  // Held-out batch: raw texts scored through the reloaded snapshot must
  // match the still-in-memory trained model bit for bit.
  const std::vector<std::string> texts = SampleTexts(8);
  std::vector<int32_t> creator_ids(texts.size(), -1);
  std::vector<std::vector<int32_t>> subject_ids(texts.size());
  creator_ids[0] = 0;
  subject_ids[1] = {0};

  const auto documents = text::TokenizeDocuments(texts);
  const core::HfluInput input =
      fixture.detector.model()->article_hflu().PrepareBatch(documents);
  std::vector<std::vector<int32_t>> creator_groups(texts.size());
  creator_groups[0] = {0};
  const Tensor expected = fixture.detector.model()->ScoreArticles(
      input, subject_ids, creator_groups,
      fixture.detector.frozen_creator_states(),
      fixture.detector.frozen_subject_states());

  const Tensor actual =
      fixture.snapshot->Score(texts, creator_ids, subject_ids);
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "logit " << i << " drifted";
  }
}

TEST(ServeSnapshotTest, ValidateIdsChecksBounds) {
  const auto& fixture = SharedFixture();
  const Snapshot& snapshot = *fixture.snapshot;
  EXPECT_TRUE(snapshot.ValidateIds(-1, {}).ok());
  EXPECT_TRUE(snapshot.ValidateIds(0, {0}).ok());
  EXPECT_EQ(snapshot
                .ValidateIds(static_cast<int32_t>(snapshot.creator_states.rows()),
                             {})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshot
                .ValidateIds(-1, {static_cast<int32_t>(
                                     snapshot.subject_states.rows())})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(snapshot.ValidateIds(-1, {-3}).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeSnapshotTest, ScoringAllocatesNoGradState) {
  const auto& fixture = SharedFixture();
  const std::vector<std::string> texts = SampleTexts(4);
  const uint64_t tape_before = ag::TapeNodesCreated();
  const Tensor logits = fixture.snapshot->Score(
      texts, std::vector<int32_t>(texts.size(), -1),
      std::vector<std::vector<int32_t>>(texts.size()));
  EXPECT_EQ(ag::TapeNodesCreated(), tape_before)
      << "served forward must not retain autograd tape nodes";
  EXPECT_EQ(logits.rows(), texts.size());
  EXPECT_EQ(logits.cols(), fixture.snapshot->num_classes);
}

// ---- engine -----------------------------------------------------------------------

TEST(ServeEngineTest, ServesSubmittedRequests) {
  const auto& fixture = SharedFixture();
  EngineOptions options;
  options.num_workers = 2;
  options.max_batch_size = 4;
  options.max_batch_delay_us = 500;
  InferenceEngine engine(fixture.snapshot, options);
  ASSERT_TRUE(engine.Start().ok());

  const std::vector<std::string> texts = SampleTexts(10);
  std::vector<ClassificationFuture> futures;
  for (const auto& text : texts) {
    ArticleRequest request;
    request.text = text;
    auto submitted = engine.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    Result<Classification> result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const Classification& c = result.value();
    EXPECT_GE(c.class_id, 0);
    EXPECT_LT(c.class_id, static_cast<int32_t>(fixture.snapshot->num_classes));
    EXPECT_EQ(c.probabilities.size(), fixture.snapshot->num_classes);
    float sum = 0.0f;
    for (float p : c.probabilities) sum += p;
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    EXPECT_FALSE(c.class_name.empty());
    EXPECT_GE(c.batch_size, 1u);
    // Every engine-served response carries the request context and a
    // per-stage latency breakdown that never exceeds the total.
    EXPECT_NE(c.request_id, 0u);
    EXPECT_GE(c.queue_us, 0.0);
    EXPECT_GE(c.batch_us, 0.0);
    EXPECT_GT(c.compute_us, 0.0);
    EXPECT_LE(c.queue_us + c.batch_us + c.compute_us, c.total_us * 1.01 + 1.0);
    EXPECT_DOUBLE_EQ(c.cache_us, 0.0);  // no router, no cache stage
  }
  engine.Stop();
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.submitted, texts.size());
  EXPECT_EQ(stats.completed, texts.size());
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, stats.completed);
}

TEST(ServeEngineTest, EngineMatchesDirectScore) {
  const auto& fixture = SharedFixture();
  const std::vector<std::string> texts = SampleTexts(3);
  InferenceEngine engine(fixture.snapshot);
  ASSERT_TRUE(engine.Start().ok());
  ArticleRequest request;
  request.text = texts[0];
  auto future = engine.Submit(request);
  ASSERT_TRUE(future.ok());
  auto result = future.value().get();
  ASSERT_TRUE(result.ok());

  const Tensor logits = fixture.snapshot->Score({texts[0]}, {-1}, {{}});
  const Tensor probabilities = SoftmaxRows(logits);
  ASSERT_EQ(result.value().probabilities.size(), probabilities.cols());
  for (size_t c = 0; c < probabilities.cols(); ++c) {
    EXPECT_EQ(result.value().probabilities[c], probabilities.At(0, c));
  }
}

TEST(ServeEngineTest, InvalidGraphIdsRejectedAtSubmit) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot);
  ArticleRequest request;
  request.text = "whatever";
  request.creator_id =
      static_cast<int32_t>(fixture.snapshot->creator_states.rows()) + 5;
  auto result = engine.Submit(std::move(request));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeEngineTest, BoundedQueueRejectsWithBackpressure) {
  const auto& fixture = SharedFixture();
  EngineOptions options;
  options.max_queue_depth = 3;
  // Never started: the queue fills deterministically.
  InferenceEngine engine(fixture.snapshot, options);
  std::vector<ClassificationFuture> futures;
  for (size_t i = 0; i < options.max_queue_depth; ++i) {
    auto submitted = engine.Submit(ArticleRequest{"text", -1, {}, 0});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  auto overflow = engine.Submit(ArticleRequest{"text", -1, {}, 0});
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kUnavailable);

  // Stop without starting: queued futures fail instead of blocking.
  engine.Stop();
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  }
  const EngineStats stats = engine.Stats();
  // Disjoint outcomes: the overflow submission was refused (rejected), the
  // three accepted-but-never-served requests are unavailable — so every
  // submission is accounted exactly once.
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.unavailable, options.max_queue_depth);
  EXPECT_EQ(stats.submitted, options.max_queue_depth);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.expired + stats.failed + stats.unavailable);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(ServeEngineTest, SubmitAfterStopIsUnavailable) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot);
  ASSERT_TRUE(engine.Start().ok());
  engine.Stop();
  auto result = engine.Submit(ArticleRequest{"text", -1, {}, 0});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(engine.Start().ok());  // one Start/Stop cycle per engine
}

TEST(ServeEngineTest, LapsedDeadlineFailsFutureInsteadOfServing) {
  const auto& fixture = SharedFixture();
  // Enqueue into a stopped-clock engine (not started yet) with a 1ms
  // deadline, let it lapse, then start: the worker must expire it.
  InferenceEngine engine(fixture.snapshot);
  ArticleRequest request;
  request.text = "deadline victim";
  request.deadline_us = 1000;
  auto submitted = engine.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(engine.Start().ok());
  auto result = submitted.value().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  engine.Stop();
  EXPECT_EQ(engine.Stats().expired, 1u);
  EXPECT_EQ(engine.Stats().completed, 0u);
}

// A lapsed deadline is counted once: EngineStats::expired and the
// fkd.serve.requests{result=expired} metric each advance by one.
TEST(ServeEngineTest, DeadlineExceededCounterAndMetricAdvance) {
  const auto& fixture = SharedFixture();
  obs::Counter* metric = obs::MetricsRegistry::Default().GetCounter(
      "fkd.serve.requests", {{"result", "expired"}});
  const double before = metric->Value();

  InferenceEngine engine(fixture.snapshot);
  ArticleRequest request;
  request.text = "deadline victim";
  request.deadline_us = 1000;
  auto submitted = engine.Submit(std::move(request));
  ASSERT_TRUE(submitted.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(engine.Start().ok());
  auto result = submitted.value().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  engine.Stop();
  EXPECT_EQ(engine.Stats().expired, 1u);
  EXPECT_EQ(metric->Value(), before + 1);
}

TEST(ServeEngineTest, StopDrainsQueuedRequests) {
  const auto& fixture = SharedFixture();
  EngineOptions options;
  options.num_workers = 1;
  options.max_batch_size = 2;
  options.max_batch_delay_us = 50000;  // long delay: drain must waive it
  InferenceEngine engine(fixture.snapshot, options);
  const std::vector<std::string> texts = SampleTexts(6);
  std::vector<ClassificationFuture> futures;
  for (const auto& text : texts) {
    auto submitted = engine.Submit(ArticleRequest{text, -1, {}, 0});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  ASSERT_TRUE(engine.Start().ok());
  engine.Stop();  // must not return until every future is fulfilled
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().ok());
  }
  EXPECT_EQ(engine.Stats().completed, texts.size());
}

TEST(ServeEngineTest, ServingRecordsMetrics) {
  const auto& fixture = SharedFixture();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  obs::Counter* ok =
      registry.GetCounter("fkd.serve.requests", {{"result", "ok"}});
  obs::Histogram* batch_size = registry.GetHistogram("fkd.serve.batch_size");
  obs::Histogram* latency = registry.GetHistogram("fkd.serve.latency_us");
  const double ok_before = ok->Value();
  const uint64_t latency_before = latency->Count();

  InferenceEngine engine(fixture.snapshot);
  ASSERT_TRUE(engine.Start().ok());
  auto future = engine.Submit(ArticleRequest{SampleTexts(1)[0], -1, {}, 0});
  ASSERT_TRUE(future.ok());
  ASSERT_TRUE(future.value().get().ok());
  engine.Stop();

  EXPECT_EQ(ok->Value(), ok_before + 1);
  EXPECT_EQ(latency->Count(), latency_before + 1);
  EXPECT_GE(batch_size->Count(), 1u);
  EXPECT_GE(latency->Percentile(0.99), latency->Percentile(0.5));
}

TEST(ServeEngineTest, ConcurrentSubmittersAndWorkers) {
  const auto& fixture = SharedFixture();
  EngineOptions options;
  options.num_workers = 4;
  options.max_batch_size = 8;
  options.max_batch_delay_us = 200;
  options.max_queue_depth = 1024;
  InferenceEngine engine(fixture.snapshot, options);
  ASSERT_TRUE(engine.Start().ok());

  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  const std::vector<std::string> texts = SampleTexts(kThreads * kPerThread);
  std::vector<std::thread> submitters;
  std::vector<std::vector<ClassificationFuture>> futures(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        auto submitted =
            engine.Submit(ArticleRequest{texts[t * kPerThread + i], -1, {}, 0});
        if (submitted.ok()) futures[t].push_back(std::move(submitted).value());
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  size_t completed = 0;
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      if (future.get().ok()) ++completed;
    }
  }
  engine.Stop();
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(completed, kThreads * kPerThread);
  EXPECT_EQ(stats.completed + stats.rejected + stats.expired,
            kThreads * kPerThread);
}

// ---- fault tolerance --------------------------------------------------------------

/// Arms the global fault injector for one test and disarms it on exit, so a
/// failing assertion cannot leak faults into whatever runs next.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    FKD_CHECK_OK(FaultInjector::Global().Configure(spec));
  }
  ~ScopedFaults() { FaultInjector::Global().Clear(); }
};

EngineOptions DeterministicOptions() {
  EngineOptions options;
  options.num_workers = 1;
  options.max_batch_delay_us = 0;  // no straggler wait: one submit, one batch
  return options;
}

TEST(ServeEngineTest, FailedBatchFailsEveryRequestInItOnce) {
  const auto& fixture = SharedFixture();
  EngineOptions options = DeterministicOptions();
  options.max_batch_size = 4;
  InferenceEngine engine(fixture.snapshot, options);
  // Queue two requests before starting so they ride in one batch, and fail
  // every batch: the engine fails both at once instead of retrying.
  std::vector<ClassificationFuture> futures;
  for (const auto& text : SampleTexts(2)) {
    auto submitted = engine.Submit(ArticleRequest{text, -1, {}, 0});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  ScopedFaults faults("serve.batch:fail");
  ASSERT_TRUE(engine.Start().ok());
  for (auto& future : futures) {
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  engine.Stop();
  const EngineStats stats = engine.Stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.expired + stats.failed + stats.unavailable);
}

TEST(ServeEngineTest, FatalBatchFailureIsNotRetried) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot, DeterministicOptions());
  ScopedFaults faults("serve.batch:fatal*1");
  ASSERT_TRUE(engine.Start().ok());
  auto doomed = engine.Submit(ArticleRequest{SampleTexts(1)[0], -1, {}, 0});
  ASSERT_TRUE(doomed.ok());
  auto result = doomed.value().get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);

  // The engine keeps serving once the fault passes.
  auto healthy = engine.Submit(ArticleRequest{SampleTexts(1)[0], -1, {}, 0});
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy.value().get().ok());
  engine.Stop();
  EXPECT_EQ(engine.Stats().failed, 1u);
  EXPECT_EQ(engine.Stats().completed, 1u);
  EXPECT_EQ(engine.Stats().batches, 2u) << "one batch per request";
}

TEST(ServeEngineTest, HealthReportsDrainingOnceStopped) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot);
  EXPECT_FALSE(engine.draining());
  ASSERT_TRUE(engine.Start().ok());
  EXPECT_FALSE(engine.draining());
  engine.Stop();
  EXPECT_TRUE(engine.draining());
}

// ---- completion callbacks -------------------------------------------------------
//
// Every accepted request runs its callback exactly once, whichever way it
// resolves; a refused one never runs it. Engine Stop() joins the workers,
// so a count read after it is final.

TEST(ServeCallbackTest, RunsOnceAfterTheCompletionHookWhenServed) {
  const auto& fixture = SharedFixture();
  std::atomic<int> hooked{0};
  EngineOptions options = DeterministicOptions();
  options.completion_hook = [&](const ArticleRequest&, const Classification&) {
    hooked.fetch_add(1);
  };
  InferenceEngine engine(fixture.snapshot, options);
  ASSERT_TRUE(engine.Start().ok());
  testing::CallbackProbe probe;
  const ClassificationCallback record = probe.Callback();
  int hooked_before_callback = -1;
  ASSERT_TRUE(engine
                  .Submit(ArticleRequest{SampleTexts(1)[0], -1, {}, 0},
                          [&](Result<Classification> result) {
                            hooked_before_callback = hooked.load();
                            record(std::move(result));
                          })
                  .ok());
  auto result = probe.Wait();
  engine.Stop();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(hooked_before_callback, 1) << "cache-fill hook runs first";
  EXPECT_NE(probe.thread(), std::this_thread::get_id()) << "runs on a worker";
  EXPECT_EQ(engine.Stats().completed, 1u);
}

TEST(ServeCallbackTest, RunsOnceWhenTheDeadlineExpires) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot);
  ArticleRequest request;
  request.text = "deadline victim";
  request.deadline_us = 1000;
  testing::CallbackProbe probe;
  ASSERT_TRUE(engine.Submit(std::move(request), probe.Callback()).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(engine.Start().ok());
  auto result = probe.Wait();
  engine.Stop();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(engine.Stats().expired, 1u);
}

TEST(ServeCallbackTest, RunsOnceWhenTheBatchFails) {
  const auto& fixture = SharedFixture();
  EngineOptions options = DeterministicOptions();
  options.max_batch_size = 4;
  InferenceEngine engine(fixture.snapshot, options);
  testing::CallbackProbe probes[2];
  const std::vector<std::string> texts = SampleTexts(2);
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(engine
                    .Submit(ArticleRequest{texts[i], -1, {}, 0},
                            probes[i].Callback())
                    .ok());
  }
  ScopedFaults faults("serve.batch:fail");
  ASSERT_TRUE(engine.Start().ok());
  for (auto& probe : probes) {
    auto result = probe.Wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  }
  engine.Stop();
  for (const auto& probe : probes) EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(engine.Stats().failed, 2u);
}

TEST(ServeCallbackTest, RunsOnceOnTheStopCallerWhenStoppedWithWorkQueued) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot);  // never started
  testing::CallbackProbe probes[3];
  for (auto& probe : probes) {
    ASSERT_TRUE(
        engine.Submit(ArticleRequest{"queued", -1, {}, 0}, probe.Callback())
            .ok());
  }
  engine.Stop();
  for (const auto& probe : probes) {
    EXPECT_EQ(probe.calls(), 1);
    EXPECT_EQ(probe.thread(), std::this_thread::get_id());
  }
  auto result = probes[0].Wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.Stats().unavailable, 3u);
}

TEST(ServeCallbackTest, NeverRunsForARefusedSubmit) {
  const auto& fixture = SharedFixture();
  EngineOptions options;
  options.max_queue_depth = 1;
  InferenceEngine engine(fixture.snapshot, options);  // not started: fills
  testing::CallbackProbe accepted;
  testing::CallbackProbe refused;
  ASSERT_TRUE(
      engine.Submit(ArticleRequest{"fills", -1, {}, 0}, accepted.Callback())
          .ok());
  // Queue full, bad graph id, then stopped: three refusals.
  EXPECT_EQ(
      engine.Submit(ArticleRequest{"overflow", -1, {}, 0}, refused.Callback())
          .code(),
      StatusCode::kUnavailable);
  ArticleRequest bad_ids;
  bad_ids.text = "bad ids";
  bad_ids.creator_id =
      static_cast<int32_t>(fixture.snapshot->creator_states.rows()) + 5;
  EXPECT_EQ(engine.Submit(std::move(bad_ids), refused.Callback()).code(),
            StatusCode::kInvalidArgument);
  engine.Stop();
  EXPECT_EQ(
      engine.Submit(ArticleRequest{"late", -1, {}, 0}, refused.Callback())
          .code(),
      StatusCode::kUnavailable);
  EXPECT_EQ(refused.calls(), 0);
  EXPECT_EQ(accepted.calls(), 1);
}

TEST(ServeCallbackTest, CallbackAndFutureResultsAreBitwiseIdentical) {
  const auto& fixture = SharedFixture();
  InferenceEngine engine(fixture.snapshot, DeterministicOptions());
  ASSERT_TRUE(engine.Start().ok());
  for (const std::string& text : SampleTexts(4)) {
    auto future = engine.Submit(ArticleRequest{text, -1, {}, 0});
    ASSERT_TRUE(future.ok());
    auto by_future = future.value().get();
    testing::CallbackProbe probe;
    ASSERT_TRUE(
        engine.Submit(ArticleRequest{text, -1, {}, 0}, probe.Callback()).ok());
    auto by_callback = probe.Wait();
    ASSERT_TRUE(by_future.ok() && by_callback.ok());
    testing::ExpectSameScores(by_future.value(), by_callback.value());
  }
  engine.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace fkd
