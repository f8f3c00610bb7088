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
#include <cstdlib>
#include <filesystem>
#include <functional>
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
  options.num_replicas = 2;
  options.engine.num_workers = 1;
  options.engine.max_batch_size = 8;
  options.engine.max_batch_delay_us = 200;
  options.engine.max_queue_depth = 4096;
  options.canary_permille = 0;  // tests opt in explicitly
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

TEST(StoreTest, RegisterAcceptsInProcessSnapshot) {
  const auto& fixture = SharedFixture();
  auto loaded = LoadSnapshot(fixture.snapshot_dir);
  ASSERT_TRUE(loaded.ok());
  VersionedModelStore store;
  auto model = store.Register(
      std::make_shared<const Snapshot>(std::move(loaded).value()));
  EXPECT_EQ(model->version, 1u);
  ASSERT_TRUE(store.Publish(model->version).ok());
  EXPECT_EQ(store.Active()->snapshot, model->snapshot);
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

TEST(RouterTest, CanaryPermilleEnvParsing) {
  ASSERT_EQ(setenv("FKD_CANARY_PCT", "5", 1), 0);
  EXPECT_EQ(RouterOptions::CanaryPermilleFromEnvironment(), 50u);
  ASSERT_EQ(setenv("FKD_CANARY_PCT", "2.5", 1), 0);
  EXPECT_EQ(RouterOptions::CanaryPermilleFromEnvironment(), 25u);
  ASSERT_EQ(setenv("FKD_CANARY_PCT", "100", 1), 0);
  EXPECT_EQ(RouterOptions::CanaryPermilleFromEnvironment(), 1000u);
  // Garbage, negatives and out-of-range values are ignored, not honoured.
  for (const char* bad : {"auto", "-3", "250", "5x", ""}) {
    ASSERT_EQ(setenv("FKD_CANARY_PCT", bad, 1), 0);
    EXPECT_EQ(RouterOptions::CanaryPermilleFromEnvironment(), 0u)
        << "FKD_CANARY_PCT=" << bad;
  }
  ASSERT_EQ(unsetenv("FKD_CANARY_PCT"), 0);
  EXPECT_EQ(RouterOptions::CanaryPermilleFromEnvironment(), 0u);
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
// Body shared with BudgetTest::HotSwapStressHoldsUnderTightBudget, which
// replays the identical lifecycle against a store whose budget forces a
// demote/promote cycle on every swap.
void RunHotSwapStress(VersionedModelStore& store) {
  const auto& fixture = SharedFixture();
  RouterOptions options = FastRouterOptions();
  options.num_replicas = 2;
  Router router(options);
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

TEST(RouterTest, HotSwapStressZeroDowntime) {
  VersionedModelStore store;
  RunHotSwapStress(store);
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

// ==== BudgetTest: memory-budgeted residency ==================================

/// Exact fp32 residency of one loaded fixture snapshot, measured through a
/// throwaway unlimited store — the unit the budget tests size themselves in.
size_t OneModelBytes() {
  VersionedModelStore probe;
  auto model = probe.Load(SharedFixture().snapshot_dir);
  FKD_CHECK_OK(model.status());
  return probe.Stats().resident_bytes;
}

std::string BudgetSpillDir(const std::string& stem) {
  const std::string path = (std::filesystem::temp_directory_path() /
                            (stem + "_" + std::to_string(::getpid())))
                               .string();
  std::filesystem::remove_all(path);
  return path;
}

ModelStoreOptions BudgetOptions(size_t budget_bytes, const std::string& stem) {
  ModelStoreOptions options;
  options.memory_budget_bytes = budget_bytes;
  options.spill_directory = BudgetSpillDir(stem);
  return options;
}

TEST(BudgetTest, MemoryBudgetEnvKnobParsing) {
  ASSERT_EQ(setenv("FKD_MEMORY_BUDGET_MB", "64", 1), 0);
  EXPECT_EQ(ModelStoreOptions::FromEnv().memory_budget_bytes,
            size_t{64} * 1024 * 1024);
  // Garbage is ignored (unlimited), not honoured.
  ASSERT_EQ(setenv("FKD_MEMORY_BUDGET_MB", "lots", 1), 0);
  EXPECT_EQ(ModelStoreOptions::FromEnv().memory_budget_bytes, 0u);
  ASSERT_EQ(unsetenv("FKD_MEMORY_BUDGET_MB"), 0);
  EXPECT_EQ(ModelStoreOptions::FromEnv().memory_budget_bytes, 0u);
}

TEST(BudgetTest, RegisteringOverBudgetDemotesLeastRecentlyUsed) {
  const auto& fixture = SharedFixture();
  const size_t one = OneModelBytes();
  // Room for two resident versions, not three.
  VersionedModelStore store(BudgetOptions(one * 2 + one / 2, "fkd_budget_lru"));
  auto v1 = store.Load(fixture.snapshot_dir);
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok() && v2.ok());
  ModelStoreStats stats = store.Stats();
  EXPECT_EQ(stats.demoted, 0u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes);

  // Touch v1 so v2 becomes the coldest, then blow the budget with v3:
  // the LRU victim must be v2, not the most recently used v1.
  ASSERT_TRUE(store.Get(1).ok());
  auto v3 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v3.ok());
  stats = store.Stats();
  EXPECT_EQ(stats.demoted, 1u);
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes)
      << "the accountant let the registry exceed its budget";

  // All three versions are still addressable; v2 comes back via promotion
  // (the promotions counter is the witness that v2 was the one demoted).
  EXPECT_EQ(store.ResidentVersions(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(store.Stats().promotions, 0u);
  auto back = store.Get(2);
  ASSERT_TRUE(back.ok());
  EXPECT_NE(back.value()->snapshot, nullptr);
  stats = store.Stats();
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes)
      << "the promotion was not paid for by demoting someone colder";
}

TEST(BudgetTest, GetRePromotesBitIdentically) {
  const auto& fixture = SharedFixture();
  const size_t one = OneModelBytes();
  // Exactly one version fits: the second load demotes the first.
  VersionedModelStore store(BudgetOptions(one, "fkd_budget_bits"));
  auto v1 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok());

  // Reference scores through the still-resident v1.
  std::vector<std::vector<float>> reference;
  for (size_t i = 0; i < 4; ++i) {
    const auto& article = fixture.dataset.articles[i];
    const Tensor logits = v1.value()->snapshot->Score(
        {article.text}, {article.creator}, {article.subjects});
    std::vector<float> row(logits.cols());
    for (size_t c = 0; c < logits.cols(); ++c) row[c] = logits.At(0, c);
    reference.push_back(std::move(row));
  }

  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v2.ok());
  ASSERT_EQ(store.Stats().demoted, 1u) << "v1 should be on the disk tier";

  auto promoted = store.Get(1);
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  ASSERT_NE(promoted.value()->snapshot, nullptr);
  EXPECT_NE(promoted.value()->snapshot, v1.value()->snapshot)
      << "promotion reloads from the spill, it does not resurrect the object";
  EXPECT_EQ(store.Stats().promotions, 1u);

  // The lossless spill + deterministic load make the round trip exact:
  // every logit is bitwise identical to the pre-demotion scores.
  for (size_t i = 0; i < reference.size(); ++i) {
    const auto& article = fixture.dataset.articles[i];
    const Tensor logits = promoted.value()->snapshot->Score(
        {article.text}, {article.creator}, {article.subjects});
    ASSERT_EQ(logits.cols(), reference[i].size());
    for (size_t c = 0; c < reference[i].size(); ++c) {
      EXPECT_EQ(logits.At(0, c), reference[i][c])
          << "article " << i << " class " << c << " drifted through demotion";
    }
  }
}

TEST(BudgetTest, ActiveAndPinnedVersionsAreNeverDemoted) {
  const auto& fixture = SharedFixture();
  // A 1-byte budget wants to demote everything; only the active/pinned
  // exemptions keep anything resident.
  VersionedModelStore store(BudgetOptions(1, "fkd_budget_pin"));
  auto v1 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(store.Stats().demoted, 1u) << "nothing protects an idle version";

  // Publishing promotes v1 and shields it from then on.
  ASSERT_TRUE(store.Publish(1).ok());
  EXPECT_EQ(store.Stats().demoted, 0u);
  const uint64_t promotions_after_publish = store.Stats().promotions;

  // A canary: loaded, immediately demoted, then pinned (which promotes it
  // and exempts it like the active version).
  auto v2 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(store.Stats().demoted, 1u);
  ASSERT_TRUE(store.Pin(2).ok());
  EXPECT_EQ(store.Stats().demoted, 0u);

  // A third version churns through the budget loop; the active and the
  // pinned versions must not be touched by it.
  auto v3 = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(v3.ok());
  ModelStoreStats stats = store.Stats();
  EXPECT_EQ(stats.demoted, 1u) << "only v3 is demotable";
  // Get on the active and pinned versions is promotion-free.
  ASSERT_TRUE(store.Get(1).ok());
  ASSERT_TRUE(store.Get(2).ok());
  EXPECT_EQ(store.Stats().promotions, promotions_after_publish + 1)
      << "active/pinned Get must not need a promotion";

  // Unpin drops the shield: the budget loop reclaims v2.
  ASSERT_TRUE(store.Unpin(2).ok());
  EXPECT_EQ(store.Stats().demoted, 2u);
  // The active version remains the only resident one, over budget by
  // design: the store never demotes what is being served.
  EXPECT_EQ(store.Stats().active_version, 1u);
  auto active = store.Get(1);
  ASSERT_TRUE(active.ok());
  EXPECT_NE(active.value()->snapshot, nullptr);
}

// The PR-5 acceptance stress, replayed against a store that can hold ~1.5
// versions: every swap forces a demote (the incoming version) and a
// promote (its publish), and the three invariants — zero failed requests,
// no stale version after an acknowledged publish, full refcount drain —
// must survive the extra churn.
TEST(BudgetTest, HotSwapStressHoldsUnderTightBudget) {
  const size_t one = OneModelBytes();
  VersionedModelStore store(BudgetOptions(one + one / 2, "fkd_budget_swap"));
  RunHotSwapStress(store);
  const ModelStoreStats stats = store.Stats();
  EXPECT_GT(stats.demotions, 0u) << "the budget never bit — not a tight run";
  EXPECT_EQ(stats.demotions, stats.promotions)
      << "every demoted version was published, so each demote has a promote";
  EXPECT_LE(stats.resident_bytes, stats.budget_bytes)
      << "steady state (one active version) must fit the budget";
}

// ==== QuarantineTest: replica quarantine + self-healing ======================

/// Router options tuned so the monitor reacts within a few hundred ms:
/// fast intervals, tiny sample floor, single probe to reinstate. The score
/// cache is disabled so every request exercises an engine.
RouterOptions QuarantineRouterOptions() {
  RouterOptions options = FastRouterOptions();
  options.cache_capacity = 0;
  options.quarantine.interval_ms = 50;
  options.quarantine.min_samples = 2;
  options.quarantine.probe_successes = 1;
  return options;
}

/// Spins until `predicate` holds or `timeout_ms` passes.
bool WaitFor(const std::function<bool()>& predicate, int64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return predicate();
}

TEST(QuarantineTest, SickReplicaIsQuarantinedAndReinstated) {
  const auto& fixture = SharedFixture();
  FaultInjector::Global().Clear();
  VersionedModelStore store;
  auto model = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(model.ok());

  Router router(QuarantineRouterOptions());
  ASSERT_TRUE(router.Start(model.value()).ok());

  // Make replica 0's private fault site fail every batch; replica 1 stays
  // healthy, so this is exactly the one-sick-replica scenario quarantine
  // exists for.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("serve.replica0.batch:fail").ok());

  // Drive engine-bound traffic until the monitor quarantines replica 0.
  // Requests on the sick replica fail fast with IoError; that is the
  // signal being scored, not a test failure.
  std::atomic<bool> stop{false};
  std::thread driver([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ArticleRequest request;
      request.text = SampleText(i) + " #" + std::to_string(i);
      ++i;
      auto submitted = router.Submit(std::move(request));
      if (submitted.ok()) (void)submitted.value().get();
    }
  });

  EXPECT_TRUE(WaitFor([&] { return router.Stats().quarantines >= 1; }, 5000))
      << "sick replica was never quarantined";

  // Heal the replica: probes must now succeed and reinstate it.
  FaultInjector::Global().Clear();
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().reinstatements >= 1; }, 5000))
      << "healed replica was never reinstated";

  stop.store(true, std::memory_order_release);
  driver.join();
  const RouterStats stats = router.Stats();
  router.Stop();

  // While quarantined, replica 0's hash range was re-placed onto replica 1.
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_GE(stats.reinstatements, 1u);
  EXPECT_GE(stats.probes, 1u);
  EXPECT_GT(stats.rerouted, 0u);
  EXPECT_EQ(stats.quarantined_now, 0u);
  // Probes bypass Submit, so the router accounting invariant is intact.
  EXPECT_EQ(stats.submitted,
            stats.cache_hits + stats.primary_requests +
                stats.canary_requests);
}

TEST(QuarantineTest, HealthyFleetIsNeverQuarantined) {
  const auto& fixture = SharedFixture();
  FaultInjector::Global().Clear();
  VersionedModelStore store;
  auto model = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(model.ok());

  Router router(QuarantineRouterOptions());
  ASSERT_TRUE(router.Start(model.value()).ok());
  for (size_t i = 0; i < 64; ++i) {
    ArticleRequest request;
    request.text = SampleText(i) + " healthy" + std::to_string(i);
    auto submitted = router.Submit(std::move(request));
    ASSERT_TRUE(submitted.ok());
    auto result = submitted.value().get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  // Give the monitor a few intervals to (wrongly) react.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const RouterStats stats = router.Stats();
  router.Stop();
  EXPECT_EQ(stats.quarantines, 0u);
  EXPECT_EQ(stats.rerouted, 0u);
  EXPECT_EQ(stats.quarantined_now, 0u);
}

TEST(QuarantineTest, AllQuarantinedFallsBackToOriginalPlacement) {
  const auto& fixture = SharedFixture();
  FaultInjector::Global().Clear();
  VersionedModelStore store;
  auto model = store.Load(fixture.snapshot_dir);
  ASSERT_TRUE(model.ok());

  // Every replica sick: the shared serve.batch site fails everything, so
  // both replicas quarantine. Submission must still be attempted (serving
  // beats refusing), not crash or spin.
  Router router(QuarantineRouterOptions());
  ASSERT_TRUE(router.Start(model.value()).ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("serve.batch:fail").ok());

  std::atomic<bool> stop{false};
  std::thread driver([&] {
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ArticleRequest request;
      request.text = SampleText(i) + " sick" + std::to_string(i);
      ++i;
      auto submitted = router.Submit(std::move(request));
      if (submitted.ok()) (void)submitted.value().get();
    }
  });
  EXPECT_TRUE(WaitFor([&] { return router.Stats().quarantines >= 2; }, 5000))
      << "both replicas should quarantine";

  // Still accepting work while the whole fleet is quarantined.
  ArticleRequest request;
  request.text = SampleText(1) + " fallback";
  auto submitted = router.Submit(std::move(request));
  if (submitted.ok()) (void)submitted.value().get();

  FaultInjector::Global().Clear();
  EXPECT_TRUE(
      WaitFor([&] { return router.Stats().reinstatements >= 2; }, 5000))
      << "both replicas should heal";
  stop.store(true, std::memory_order_release);
  driver.join();
  const RouterStats stats = router.Stats();
  router.Stop();
  EXPECT_EQ(stats.quarantined_now, 0u);
  EXPECT_EQ(stats.submitted,
            stats.cache_hits + stats.primary_requests +
                stats.canary_requests);
}

}  // namespace
}  // namespace serve
}  // namespace fkd
