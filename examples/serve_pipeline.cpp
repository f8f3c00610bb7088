// Serving walk-through: train a detector on a synthetic corpus, freeze it
// into a snapshot directory, reload the snapshot through the versioned
// model store as a fresh process restart would, bring up the serving
// Router (one micro-batching engine per version + score cache), push
// synthetic traffic through it, then exercise the operational moves —
// canary a second version on a traffic slice, promote it, and hot-swap a
// third version live — and dump the fkd.serve.* metrics recorded along the
// way.
//
//   ./serve_pipeline [--articles=200] [--requests=60] [--workers=2]
//                    [--trace=trace.json]
//
// Over the wire, the same moves are tools/fkd_server's swap and canary
// frames; perfbench/ (workload swap_mixed) measures swaps under load.
// With --trace and a tracing build, FKD_SLOW_TRACE_US=<n> controls which
// requests leave queue/batch/compute spans (0 traces every request).

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"

int main(int argc, char** argv) {
  fkd::FlagParser flags;
  flags.AddInt("articles", 200, "synthetic corpus size");
  flags.AddInt("requests", 60, "requests to serve");
  flags.AddInt("workers", 2, "engine worker threads");
  flags.AddString("snapshot", "", "snapshot directory (default: temp)");
  flags.AddString("trace", "", "optional chrome://tracing JSON output path");
  fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.code() == fkd::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  const std::string trace_path = flags.GetString("trace");
  if (!trace_path.empty()) {
    fkd::obs::Tracer::Get().Enable(true);
    if (!FKD_TRACING_ENABLED) {
      FKD_LOG(Warning) << "--trace requested but spans are compiled out; "
                          "reconfigure with -DFKD_ENABLE_TRACING=ON";
    }
  }

  // 1. Train on a synthetic PolitiFact-style corpus.
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(
          static_cast<size_t>(flags.GetInt("articles")), 42));
  FKD_CHECK_OK(dataset.status());
  auto graph = dataset.value().BuildGraph();
  FKD_CHECK_OK(graph.status());

  fkd::Rng rng(7);
  auto splits = fkd::data::KFoldTriSplits(dataset.value().articles.size(),
                                          dataset.value().creators.size(),
                                          dataset.value().subjects.size(), 5,
                                          &rng);
  FKD_CHECK_OK(splits.status());

  fkd::core::FakeDetectorConfig config;
  config.epochs = 15;
  config.verbose = false;
  fkd::eval::TrainContext context;
  context.dataset = &dataset.value();
  context.graph = &graph.value();
  context.train_articles = splits.value()[0].articles.train;
  context.train_creators = splits.value()[0].creators.train;
  context.train_subjects = splits.value()[0].subjects.train;
  context.granularity = fkd::eval::LabelGranularity::kBinary;
  context.seed = 7;

  fkd::core::FakeDetector detector(config);
  std::printf("training on %zu articles...\n",
              dataset.value().articles.size());
  FKD_CHECK_OK(detector.Train(context));
  std::printf("trained: final loss %.4f after %zu epochs\n\n",
              detector.train_stats().epoch_losses.back(),
              detector.train_stats().epoch_losses.size());

  // 2. Freeze to disk.
  const std::string snapshot_dir =
      flags.GetString("snapshot").empty()
          ? (std::filesystem::temp_directory_path() / "fkd_serve_example")
                .string()
          : flags.GetString("snapshot");
  FKD_CHECK_OK(fkd::serve::ExportSnapshot(detector, snapshot_dir));
  std::printf("exported snapshot to %s\n", snapshot_dir.c_str());

  // 3. Reload through the versioned model store — from here on only the
  // snapshot directory is used, exactly like an inference process
  // restarting on another machine. Each Load() is an immutable version.
  fkd::serve::VersionedModelStore store;
  auto v1 = store.Load(snapshot_dir);
  FKD_CHECK_OK(v1.status());
  FKD_CHECK_OK(store.Publish(v1.value()->version));
  std::printf("loaded version %llu: %zu classes, %zu frozen creators, "
              "%zu frozen subjects\n\n",
              static_cast<unsigned long long>(v1.value()->version),
              v1.value()->snapshot->num_classes,
              v1.value()->snapshot->creator_states.rows(),
              v1.value()->snapshot->subject_states.rows());

  // 4. Serve synthetic traffic through the router: one micro-batching
  // engine behind a sharded LRU score cache. The corpus repeats, so the
  // second half of the traffic is mostly cache hits.
  fkd::serve::RouterOptions options;
  options.engine.num_workers = static_cast<size_t>(flags.GetInt("workers"));
  options.engine.max_batch_size = 8;
  options.engine.max_batch_delay_us = 1000;
  fkd::serve::Router router(options);
  FKD_CHECK_OK(router.Start(v1.value()));

  const size_t num_requests = static_cast<size_t>(flags.GetInt("requests"));
  std::vector<fkd::serve::ClassificationFuture> futures;
  for (size_t i = 0; i < num_requests; ++i) {
    const auto& article =
        dataset.value().articles[i % dataset.value().articles.size()];
    fkd::serve::ArticleRequest request;
    request.text = article.text;
    auto submitted = router.Submit(std::move(request));
    FKD_CHECK_OK(submitted.status());
    futures.push_back(std::move(submitted).value());
  }
  size_t shown = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    FKD_CHECK_OK(result.status());
    if (shown < 5) {  // print the first few classifications
      const fkd::serve::Classification& c = result.value();
      std::printf("request %zu -> %-13s (p=%.3f, v%llu%s, %.0f us)\n", i,
                  c.class_name.c_str(), c.probabilities[c.class_id],
                  static_cast<unsigned long long>(c.model_version),
                  c.from_cache ? ", cached" : "", c.total_us);
      ++shown;
    }
  }
  // Same traffic again: every request is now a score-cache hit — no
  // forward pass, microsecond latency.
  for (size_t i = 0; i < num_requests; ++i) {
    const auto& article =
        dataset.value().articles[i % dataset.value().articles.size()];
    fkd::serve::ArticleRequest request;
    request.text = article.text;
    auto submitted = router.Submit(std::move(request));
    FKD_CHECK_OK(submitted.status());
    FKD_CHECK_OK(submitted.value().get().status());
  }
  {
    const fkd::serve::RouterStats stats = router.Stats();
    std::printf("\nserved %llu requests (%llu cache hits, %llu misses)\n",
                static_cast<unsigned long long>(stats.submitted),
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses));
  }

  // 5. Operational moves, all without dropping a request: canary a second
  // version on 25% of traffic, promote it, then hot-swap a third version.
  auto v2 = store.Load(snapshot_dir);
  FKD_CHECK_OK(v2.status());
  FKD_CHECK_OK(router.StartCanary(v2.value(), 250));
  std::printf("\ncanary: version %llu on 25%% of request keys\n",
              static_cast<unsigned long long>(v2.value()->version));
  for (size_t i = 0; i < 20; ++i) {
    fkd::serve::ArticleRequest request;
    request.text = dataset.value().articles[i].text + " (canary probe)";
    auto submitted = router.Submit(std::move(request));
    FKD_CHECK_OK(submitted.status());
    FKD_CHECK_OK(submitted.value().get().status());
  }
  {
    const fkd::serve::RouterStats stats = router.Stats();
    std::printf("canary served %llu of the probes; promoting\n",
                static_cast<unsigned long long>(stats.canary_requests));
  }
  FKD_CHECK_OK(router.PromoteCanary());
  FKD_CHECK_OK(store.Publish(v2.value()->version));
  FKD_CHECK_OK(store.Retire(v1.value()->version));

  auto v3 = store.Load(snapshot_dir);
  FKD_CHECK_OK(v3.status());
  FKD_CHECK_OK(router.Publish(v3.value()));
  FKD_CHECK_OK(store.Publish(v3.value()->version));
  FKD_CHECK_OK(store.Retire(v2.value()->version));
  std::printf("hot-swapped to version %llu (router active: %llu)\n",
              static_cast<unsigned long long>(v3.value()->version),
              static_cast<unsigned long long>(router.active_version()));
  router.Stop();

  // 6. The serving telemetry.
  std::printf("\nfkd.serve.* metrics:\n");
  const std::string text = fkd::obs::MetricsRegistry::Default().ExportText();
  for (size_t pos = 0; pos < text.size();) {
    const size_t end = text.find('\n', pos);
    const std::string line = text.substr(pos, end - pos);
    if (line.find("fkd.serve.") != std::string::npos) {
      std::printf("  %s\n", line.c_str());
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  if (!trace_path.empty()) {
    FKD_CHECK_OK(fkd::obs::Tracer::Get().WriteChromeJson(trace_path));
    std::printf("trace written to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}
