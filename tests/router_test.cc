// VersionedModelStore + Router suites: version lifecycle (load → publish →
// retire → refcount drain), cache/canary routing semantics, and the
// zero-downtime hot-swap stress test — sustained concurrent load across 10
// live snapshot swaps with zero failed requests and no stale-version
// responses after a publish returns. Router*/Store* also run under TSan
// (tools/tsan_smoke.sh) and ASan (tools/asan_smoke.sh).

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
#include "data/generator.h"
#include "data/split.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "tests/callback_probe.h"

namespace fkd {
namespace serve {
namespace {

// ---- shared trained fixture -------------------------------------------------------

struct TrainedFixture {
  data::Dataset dataset;
  graph::HeterogeneousGraph graph;
  core::FakeDetector detector;
  std::string snapshot_dir;
};

core::FakeDetectorConfig TinyConfig() {
  core::FakeDetectorConfig config;
  config.epochs = 5;
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
    auto dataset =
        data::GeneratePolitiFact(data::GeneratorOptions::Scaled(55, 91));
    FKD_CHECK_OK(dataset.status());
    auto graph = dataset.value().BuildGraph();
    FKD_CHECK_OK(graph.status());
    auto* f = new TrainedFixture{std::move(dataset).value(),
                                 std::move(graph).value(),
                                 core::FakeDetector(TinyConfig()),
                                 {}};
    Rng rng(17);
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

    // Per-process directory: ctest runs each test in its own process.
    f->snapshot_dir = (std::filesystem::temp_directory_path() /
                       ("fkd_router_snapshot_" + std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(f->snapshot_dir);
    FKD_CHECK_OK(ExportSnapshot(f->detector, f->snapshot_dir));
    return f;
  }();
  return *fixture;
}

std::string SampleText(size_t i) {
  const auto& fixture = SharedFixture();
  return fixture.dataset.articles[i % fixture.dataset.articles.size()].text;
}

/// Engine options keeping router tests snappy: tiny batching delay, deep
/// queue so overload never rejects during the stress test.
RouterOptions FastRouterOptions() {
  RouterOptions options;
  options.engine.num_workers = 1;
  options.engine.max_batch_size = 8;
  options.engine.max_batch_delay_us = 200;
  options.engine.max_queue_depth = 4096;
  return options;
}

// ---- model store ------------------------------------------------------------------

TEST(StoreTest, LoadRegistersMonotonicVersions) {
  const auto& fixture = SharedFixture();
  VersionedModelStore store;
  auto v1 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v1.value()->version, 1u);
  EXPECT_EQ(v2.value()->version, 2u);
  EXPECT_EQ(v1.value()->directory, fixture.snapshot_dir);
  EXPECT_NE(v1.value()->snapshot, v2.value()->snapshot)
      << "each load is an independent immutable snapshot";
  EXPECT_EQ(store.ResidentVersions(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(store.Stats().loads, 2u);
}

TEST(StoreTest, LoadRejectsMissingOrCorruptDirectories) {
  VersionedModelStore store;
  auto missing = store.Load("/nonexistent/fkd/store");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(store.Stats().load_failures, 1u);
  EXPECT_TRUE(store.ResidentVersions().empty());
}

TEST(StoreTest, PublishSwitchesActiveAtomically) {
  const auto& fixture = SharedFixture();
  VersionedModelStore store;
  EXPECT_EQ(store.Active(), nullptr);
  auto v1 = store.Load(fixture.snapshot_dir);
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok() && v2.ok());

  ASSERT_TRUE(store.Publish(1).ok());
  EXPECT_EQ(store.Active()->version, 1u);
  ASSERT_TRUE(store.Publish(2).ok());
  EXPECT_EQ(store.Active()->version, 2u);
  EXPECT_EQ(store.Stats().publishes, 2u);
  EXPECT_EQ(store.Stats().active_version, 2u);

  EXPECT_EQ(store.Publish(99).code(), StatusCode::kNotFound);
}

TEST(StoreTest, RetiredVersionDiesWhenItsLastReferenceDrains) {
  const auto& fixture = SharedFixture();
  VersionedModelStore store;
  auto v1 = store.Load(fixture.snapshot_dir);
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok() && v2.ok());
  ASSERT_TRUE(store.Publish(1).ok());

  // The active version may not be retired out from under the router.
  EXPECT_EQ(store.Retire(1).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(store.Publish(2).ok());
  // An "in-flight batch" still holds version 1.
  std::shared_ptr<const ServingModel> in_flight = std::move(v1).value();
  ASSERT_TRUE(store.Retire(1).ok());
  EXPECT_EQ(store.ResidentVersions(), (std::vector<uint64_t>{2}));
  EXPECT_EQ(store.Retire(1).code(), StatusCode::kNotFound) << "already gone";

  ModelStoreStats stats = store.Stats();
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_EQ(stats.retired_still_alive, 1u) << "in-flight ref pins it";

  in_flight.reset();  // the RCU grace period ends here
  stats = store.Stats();
  EXPECT_EQ(stats.retired_still_alive, 0u)
      << "refcount drained, memory released";
}

TEST(StoreTest, ResidentBytesSumsRegisteredVersions) {
  const auto& fixture = SharedFixture();
  const auto resident_gauge = [] {
    return obs::MetricsRegistry::Default()
        .GetGauge("fkd.store.resident_bytes")
        ->Value();
  };
  VersionedModelStore store;
  auto v1 = store.Load(fixture.snapshot_dir);
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok() && v2.ok());
  const size_t one = v1.value()->snapshot->ResidentBytes();
  ASSERT_GT(one, 0u);
  EXPECT_EQ(store.Stats().resident_bytes, 2 * one);
  EXPECT_EQ(resident_gauge(), static_cast<double>(2 * one));

  // A retired version leaves the sum at once, even while a reference
  // still keeps its memory alive.
  ASSERT_TRUE(store.Publish(2).ok());
  std::shared_ptr<const ServingModel> in_flight = std::move(v1).value();
  ASSERT_TRUE(store.Retire(1).ok());
  EXPECT_EQ(store.Stats().resident_bytes, one);
  EXPECT_EQ(resident_gauge(), static_cast<double>(one));
  EXPECT_EQ(store.Stats().retired_still_alive, 1u);
}

// ---- router basics ----------------------------------------------------------------

std::shared_ptr<const ServingModel> LoadVersion(VersionedModelStore* store) {
  auto loaded = store->Load(SharedFixture().snapshot_dir);
  FKD_CHECK_OK(loaded.status());
  return std::move(loaded).value();
}

Result<Classification> SubmitAndWait(Router* router, const std::string& text) {
  ArticleRequest request;
  request.text = text;
  auto submitted = router->Submit(std::move(request));
  FKD_RETURN_NOT_OK(submitted.status());
  return submitted.value().get();
}

TEST(RouterTest, SubmitBeforeStartAndAfterStopIsUnavailable) {
  Router router(FastRouterOptions());
  auto early = router.Submit(ArticleRequest{"text", -1, {}, 0});
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kUnavailable);

  VersionedModelStore store;
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  router.Stop();
  auto late = router.Submit(ArticleRequest{"text", -1, {}, 0});
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

TEST(RouterTest, ServesAndFillsScoreCache) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  const std::string text = SampleText(0);

  auto cold = SubmitAndWait(&router, text);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(cold.value().from_cache);
  EXPECT_EQ(cold.value().model_version, 1u);

  // The completion hook filled the cache before the future resolved, so
  // the repeat is a guaranteed hit and skips the forward pass entirely.
  auto warm = SubmitAndWait(&router, text);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.value().from_cache);
  EXPECT_EQ(warm.value().model_version, 1u);
  EXPECT_EQ(warm.value().batch_size, 0u);
  ASSERT_EQ(warm.value().probabilities.size(),
            cold.value().probabilities.size());
  for (size_t c = 0; c < cold.value().probabilities.size(); ++c) {
    EXPECT_EQ(warm.value().probabilities[c], cold.value().probabilities[c])
        << "cached scores must be bitwise identical";
  }
  EXPECT_EQ(warm.value().class_id, cold.value().class_id);

  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache.size, 1u);
  router.Stop();
}

TEST(RouterTest, CacheDisabledStillServes) {
  RouterOptions options = FastRouterOptions();
  options.cache_capacity = 0;
  VersionedModelStore store;
  Router router(options);
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  const std::string text = SampleText(1);
  for (int i = 0; i < 2; ++i) {
    auto result = SubmitAndWait(&router, text);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result.value().from_cache);
  }
  const RouterStats stats = router.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  router.Stop();
}

TEST(RouterTest, RequestKeyCoversGraphContext) {
  ArticleRequest a;
  a.text = "same text";
  ArticleRequest b = a;
  EXPECT_EQ(Router::RequestKey(a), Router::RequestKey(b));
  b.creator_id = 3;
  EXPECT_NE(Router::RequestKey(a), Router::RequestKey(b));
  b = a;
  b.subject_ids = {1, 2};
  EXPECT_NE(Router::RequestKey(a), Router::RequestKey(b));
  ArticleRequest c = a;
  c.subject_ids = {2, 1};
  EXPECT_NE(Router::RequestKey(b), Router::RequestKey(c))
      << "subject order is part of the identity";
}

TEST(RouterTest, PublishSwapsServingVersion) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  auto v1 = LoadVersion(&store);
  ASSERT_TRUE(router.Start(v1).ok());
  EXPECT_EQ(router.active_version(), 1u);

  const std::string text = SampleText(2);
  auto before = SubmitAndWait(&router, text);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().model_version, 1u);

  auto v2 = LoadVersion(&store);
  ASSERT_TRUE(router.Publish(v2).ok());
  EXPECT_EQ(router.active_version(), 2u);
  EXPECT_EQ(router.Stats().swaps, 1u);

  // Same article, new version: the v1 cache entry must NOT be served (the
  // version is part of the key), and the response carries v2.
  auto after = SubmitAndWait(&router, text);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().model_version, 2u);
  EXPECT_FALSE(after.value().from_cache)
      << "a swap invalidates cached scores by construction";

  // ...and scoring is reproducible across identically-trained versions.
  ASSERT_EQ(after.value().probabilities.size(),
            before.value().probabilities.size());
  for (size_t c = 0; c < after.value().probabilities.size(); ++c) {
    EXPECT_EQ(after.value().probabilities[c], before.value().probabilities[c]);
  }
  router.Stop();
}

TEST(RouterTest, CanarySplitsDeterministicallyThenPromotes) {
  VersionedModelStore store;
  RouterOptions options = FastRouterOptions();
  options.cache_capacity = 0;  // count engine-routed requests exactly
  Router router(options);
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());

  EXPECT_EQ(router.PromoteCanary().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(router.StopCanary().code(), StatusCode::kFailedPrecondition);

  auto v2 = LoadVersion(&store);
  ASSERT_TRUE(router.StartCanary(v2, 500).ok());  // 50% of keys

  // Each distinct article lands deterministically on one side; across many
  // articles both sides see traffic roughly evenly.
  std::vector<uint64_t> versions;
  for (size_t i = 0; i < 40; ++i) {
    auto result = SubmitAndWait(&router, SampleText(i) + std::to_string(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    versions.push_back(result.value().model_version);
  }
  const RouterStats mid = router.Stats();
  EXPECT_GT(mid.canary_requests, 5u);
  EXPECT_GT(mid.primary_requests, 5u);
  EXPECT_EQ(mid.canary_requests + mid.primary_requests, 40u);
  EXPECT_EQ(mid.canary_version, 2u);
  EXPECT_EQ(mid.active_version, 1u);

  // Determinism: resubmitting the same articles reproduces the split.
  for (size_t i = 0; i < 40; ++i) {
    auto result = SubmitAndWait(&router, SampleText(i) + std::to_string(i));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().model_version, versions[i]) << "article " << i;
  }

  ASSERT_TRUE(router.PromoteCanary().ok());
  EXPECT_EQ(router.active_version(), 2u);
  EXPECT_EQ(router.Stats().canary_version, 0u);
  auto promoted = SubmitAndWait(&router, SampleText(3));
  ASSERT_TRUE(promoted.ok());
  EXPECT_EQ(promoted.value().model_version, 2u);
  router.Stop();
}

TEST(RouterTest, StopCanaryReturnsTrafficToPrimary) {
  VersionedModelStore store;
  RouterOptions options = FastRouterOptions();
  options.cache_capacity = 0;
  Router router(options);
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  ASSERT_TRUE(router.StartCanary(LoadVersion(&store), 1000).ok());  // all keys
  auto canaried = SubmitAndWait(&router, SampleText(4));
  ASSERT_TRUE(canaried.ok());
  EXPECT_EQ(canaried.value().model_version, 2u);

  ASSERT_TRUE(router.StopCanary().ok());
  auto back = SubmitAndWait(&router, SampleText(4));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().model_version, 1u);
  router.Stop();
}

// ---- hot-swap stress --------------------------------------------------------------

// The acceptance test of this PR: sustained concurrent load while 10 live
// snapshot swaps happen. Three invariants:
//   1. zero failed requests — every submitted future resolves OK;
//   2. monotone versions — no response is served by a version older than
//      the last publish that returned before its submit (no stale reads
//      after a swap is acknowledged);
//   3. the store's retired versions all drain — refcounts actually reach
//      zero once the router moved on.
TEST(RouterTest, HotSwapStressZeroDowntime) {
  const auto& fixture = SharedFixture();
  VersionedModelStore store;
  Router router(FastRouterOptions());
  auto initial = LoadVersion(&store);
  ASSERT_TRUE(store.Publish(initial->version).ok());
  ASSERT_TRUE(router.Start(initial).ok());
  initial.reset();

  constexpr size_t kSwaps = 10;
  constexpr size_t kSubmitters = 3;

  // The floor: highest version whose Publish() has returned. Submitters
  // read it before each submit; the response they get must be >= it.
  std::atomic<uint64_t> published_floor{1};
  std::atomic<bool> swapping_done{false};
  std::atomic<uint64_t> requests_ok{0};
  std::atomic<uint64_t> requests_failed{0};
  std::atomic<uint64_t> stale_responses{0};
  std::atomic<uint64_t> cache_hits_seen{0};

  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      size_t i = 0;
      while (!swapping_done.load(std::memory_order_acquire)) {
        const uint64_t floor =
            published_floor.load(std::memory_order_acquire);
        ArticleRequest request;
        // A mix of repeats (cache-hit candidates) and per-thread uniques.
        request.text = (i % 3 == 0)
                           ? fixture.dataset.articles[i % 7].text
                           : SampleText(t * 1000 + i) + std::to_string(i);
        auto submitted = router.Submit(std::move(request));
        if (!submitted.ok()) {
          requests_failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        auto result = submitted.value().get();
        if (!result.ok()) {
          requests_failed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        requests_ok.fetch_add(1, std::memory_order_relaxed);
        if (result.value().from_cache) {
          cache_hits_seen.fetch_add(1, std::memory_order_relaxed);
        }
        if (result.value().model_version < floor) {
          stale_responses.fetch_add(1, std::memory_order_relaxed);
        }
        ++i;
      }
    });
  }

  // Swap loop: load → publish to store → hot-swap the router → retire the
  // predecessor. Each iteration is a full version lifecycle under load.
  for (size_t swap = 0; swap < kSwaps; ++swap) {
    auto loaded = store.Load(fixture.snapshot_dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto model = std::move(loaded).value();
    const uint64_t previous = store.Active()->version;
    ASSERT_TRUE(store.Publish(model->version).ok());
    ASSERT_TRUE(router.Publish(model).ok());
    published_floor.store(model->version, std::memory_order_release);
    ASSERT_TRUE(store.Retire(previous).ok());
    model.reset();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  swapping_done.store(true, std::memory_order_release);
  for (auto& thread : submitters) thread.join();
  const RouterStats router_stats = router.Stats();  // before Stop clears it
  const uint64_t final_version = router.active_version();
  router.Stop();

  EXPECT_EQ(requests_failed.load(), 0u)
      << "hot swaps must never fail a request";
  EXPECT_EQ(stale_responses.load(), 0u)
      << "no response from a version older than an acknowledged publish";
  EXPECT_GT(requests_ok.load(), kSwaps) << "the load ran through the swaps";
  EXPECT_EQ(router_stats.swaps, kSwaps);
  EXPECT_EQ(final_version, 1u + kSwaps);

  // Counter-consistency audit: every Submit() call resolved exactly one
  // way, even while versions were being swapped underneath it.
  EXPECT_EQ(router_stats.submitted,
            router_stats.cache_hits + router_stats.primary_requests +
                router_stats.canary_requests)
      << "a request was double-counted or dropped across outcomes";
  EXPECT_EQ(router_stats.rejected, 0u);
  EXPECT_EQ(router_stats.submitted, requests_ok.load())
      << "router accounting must match the per-future tally";
  EXPECT_EQ(router_stats.cache_hits, cache_hits_seen.load());
  EXPECT_EQ(router_stats.submitted,
            router_stats.cache_hits + router_stats.cache_misses);

  // Every retired version must actually die once the router and the
  // submitters released it — the RCU drain is not a leak.
  const ModelStoreStats stats = store.Stats();
  EXPECT_EQ(stats.retired, kSwaps);
  EXPECT_EQ(stats.retired_still_alive, 0u)
      << "a retired version is still pinned after its drain";
  EXPECT_EQ(stats.active_version, 1u + kSwaps);
}

// ==== RouterCallbackTest: the push path =====================================

TEST(RouterCallbackTest, HitRunsOnceOnTheCallerBeforeSubmitReturns) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  const std::string text = SampleText(0);
  ASSERT_TRUE(SubmitAndWait(&router, text).ok());  // fills the cache

  testing::CallbackProbe probe;
  ASSERT_TRUE(
      router.Submit(ArticleRequest{text, -1, {}, 0}, probe.Callback()).ok());
  EXPECT_EQ(probe.calls(), 1) << "a hit completes inside Submit";
  EXPECT_EQ(probe.thread(), std::this_thread::get_id());
  auto result = probe.Wait();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().from_cache);
  router.Stop();
  EXPECT_EQ(probe.calls(), 1);
}

TEST(RouterCallbackTest, MissRunsOnceOnAnEngineWorker) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  testing::CallbackProbe probe;
  ASSERT_TRUE(router
                  .Submit(ArticleRequest{SampleText(1), -1, {}, 0},
                          probe.Callback())
                  .ok());
  auto result = probe.Wait();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result.value().from_cache);
  EXPECT_NE(probe.thread(), std::this_thread::get_id());
  router.Stop();  // drains the engines: any second run would be visible
  EXPECT_EQ(probe.calls(), 1);
  EXPECT_EQ(router.Stats().cache_misses, 1u);
}

TEST(RouterCallbackTest, HitCallbackMayReenterTheRouter) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  const std::string text = SampleText(2);
  ASSERT_TRUE(SubmitAndWait(&router, text).ok());

  // The router mutex is released before a hit's callback runs, so the
  // callback may submit again (another hit, completing inline) and read
  // the stats; holding the mutex here would deadlock.
  testing::CallbackProbe inner;
  testing::CallbackProbe outer;
  const ClassificationCallback record = outer.Callback();
  Status inner_status = Status::Unavailable("inner submit never ran");
  ASSERT_TRUE(router
                  .Submit(ArticleRequest{text, -1, {}, 0},
                          [&](Result<Classification> result) {
                            inner_status = router.Submit(
                                ArticleRequest{text, -1, {}, 0},
                                inner.Callback());
                            EXPECT_GE(router.Stats().cache_hits, 2u);
                            record(std::move(result));
                          })
                  .ok());
  EXPECT_TRUE(inner_status.ok());
  EXPECT_EQ(outer.calls(), 1);
  EXPECT_EQ(inner.calls(), 1);
  EXPECT_EQ(router.Stats().cache_hits, 2u);
  router.Stop();
}

TEST(RouterCallbackTest, NeverRunsForARefusedSubmit) {
  VersionedModelStore store;
  Router router(FastRouterOptions());
  testing::CallbackProbe refused;
  EXPECT_EQ(router.Submit(ArticleRequest{"early", -1, {}, 0},
                          refused.Callback())
                .code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(router.Start(LoadVersion(&store)).ok());
  // The engine refuses an out-of-range graph id.
  ArticleRequest bad_ids;
  bad_ids.text = "bad ids";
  bad_ids.creator_id = 1 << 30;
  EXPECT_EQ(router.Submit(std::move(bad_ids), refused.Callback()).code(),
            StatusCode::kInvalidArgument);
  router.Stop();
  EXPECT_EQ(
      router.Submit(ArticleRequest{"late", -1, {}, 0}, refused.Callback())
          .code(),
      StatusCode::kUnavailable);
  EXPECT_EQ(refused.calls(), 0);
  EXPECT_EQ(router.Stats().rejected, 3u);
}

TEST(RouterCallbackTest, CallbackAndFutureResultsAreBitwiseIdentical) {
  VersionedModelStore store;
  auto model = LoadVersion(&store);
  // Engine-served answers (no cache) and cache hits, each both ways.
  for (const size_t cache_capacity : {size_t{0}, size_t{64}}) {
    RouterOptions options = FastRouterOptions();
    options.cache_capacity = cache_capacity;
    Router router(options);
    ASSERT_TRUE(router.Start(model).ok());
    for (size_t i = 0; i < 4; ++i) {
      const std::string text = SampleText(i);
      if (cache_capacity > 0) {
        ASSERT_TRUE(SubmitAndWait(&router, text).ok());  // fills the cache
      }
      auto by_future = SubmitAndWait(&router, text);
      testing::CallbackProbe probe;
      ASSERT_TRUE(
          router.Submit(ArticleRequest{text, -1, {}, 0}, probe.Callback())
              .ok());
      auto by_callback = probe.Wait();
      ASSERT_TRUE(by_future.ok() && by_callback.ok());
      EXPECT_EQ(by_callback.value().from_cache, cache_capacity > 0);
      testing::ExpectSameScores(by_future.value(), by_callback.value());
    }
    router.Stop();
  }
}

// ==== the engine's queue-depth gauge ==========================================

TEST(RouterTest, QueueDepthGaugeCountsQueuedRequests) {
  // fkd_obstop reads the engine queue from the unlabelled
  // fkd.serve.queue_depth gauge, which every engine keeps exact. Hold
  // kQueued requests on a single-worker engine: the batch never fills and
  // its wait is long, so they sit in the queue.
  const auto& fixture = SharedFixture();
  FaultInjector::Global().Clear();
  VersionedModelStore store;
  auto model = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(model.ok());

  constexpr size_t kQueued = 5;
  RouterOptions options = FastRouterOptions();
  options.cache_capacity = 0;
  options.engine.max_batch_size = 16;
  options.engine.max_batch_delay_us = 1'500'000;
  Router router(options);
  ASSERT_TRUE(router.Start(model.value()).ok());
  const obs::Gauge* depth =
      obs::MetricsRegistry::Default().GetGauge("fkd.serve.queue_depth");
  const double depth_before = depth->Value();

  std::vector<ClassificationFuture> futures;
  for (size_t i = 0; i < kQueued; ++i) {
    ArticleRequest request;
    request.text = SampleText(i) + " queued" + std::to_string(i);
    auto submitted = router.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(submitted).value());
  }
  EXPECT_EQ(depth->Value(), depth_before + static_cast<double>(kQueued));
  for (auto& future : futures) ASSERT_TRUE(future.get().ok());
  EXPECT_EQ(depth->Value(), depth_before);
  router.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace fkd
