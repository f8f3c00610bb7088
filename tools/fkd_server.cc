// FKDN/1 wire-protocol serving daemon: snapshot -> Router -> epoll server.
//
//   ./fkd_server --snapshot=/path/to/snapshot --port=7433
//   ./fkd_server --demo --port=0 --port-file=/tmp/port   # self-trained model
//
// --demo trains a tiny synthetic model in-process (no snapshot needed), so
// smoke tests and quickstarts can bring up a serving endpoint with one
// command. It exports into --snapshot when given; otherwise into a
// directory under the temp path that is removed on exit. kSwapRequest
// frames re-load the snapshot directory and hot-swap the router to the new
// version; kCanaryRequest frames start (or stop, permille 0) a canary on a
// fresh load of the same directory. Each move retires the version it
// replaced (net::InstallReloadHandlers).
//
// SIGINT/SIGTERM triggers the graceful sequence: stop accepting, drain
// every in-flight request and flush its response, stop the router, flush
// the stats exporter, then verify the no-silent-drop accounting invariant
// before exiting. FKD_STATS_INTERVAL_MS / FKD_STATS_PATH enable the JSONL
// stats feed consumed by fkd_obstop.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "net/reload_handlers.h"
#include "net/server.h"
#include "obs/exporter.h"
#include "obs/flight_recorder.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_release); }

/// Trains a small synthetic detector and freezes it into `snapshot_dir`.
fkd::Status TrainDemoSnapshot(const std::string& snapshot_dir,
                              size_t articles) {
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(articles, 42));
  FKD_RETURN_NOT_OK(dataset.status());
  auto graph = dataset.value().BuildGraph();
  FKD_RETURN_NOT_OK(graph.status());
  fkd::Rng rng(7);
  auto splits = fkd::data::KFoldTriSplits(
      dataset.value().articles.size(), dataset.value().creators.size(),
      dataset.value().subjects.size(), 5, &rng);
  FKD_RETURN_NOT_OK(splits.status());

  fkd::core::FakeDetectorConfig config;
  config.epochs = 10;
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
  FKD_RETURN_NOT_OK(detector.Train(context));
  return fkd::serve::ExportSnapshot(detector, snapshot_dir);
}

}  // namespace

int main(int argc, char** argv) {
  // Installed first, so a signal that arrives while the model still trains
  // or loads also ends in the graceful sequence below, not in a kill.
  std::signal(SIGINT, &HandleSignal);
  std::signal(SIGTERM, &HandleSignal);

  fkd::FlagParser flags;
  flags.AddString("host", "127.0.0.1", "bind address (numeric IPv4)");
  flags.AddInt("port", 7433, "TCP port (0 = ephemeral, see --port-file)");
  flags.AddString("snapshot", "", "snapshot directory to serve");
  flags.AddBool("demo", false, "train a tiny synthetic model to serve");
  flags.AddInt("demo-articles", 120, "synthetic corpus size for --demo");
  flags.AddInt("workers", 2, "engine worker threads");
  flags.AddInt("loops", 2, "epoll event-loop threads");
  flags.AddInt("max-inflight", 256, "in-flight classify budget");
  flags.AddInt("max-connections", 1024, "concurrent connection cap");
  flags.AddInt("idle-timeout-ms", 60000,
               "close idle / slow-loris connections after this (<=0 off)");
  flags.AddString("port-file", "",
                  "write the bound port here once listening");
  fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.code() == fkd::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  std::string snapshot_dir = flags.GetString("snapshot");
  const bool owns_snapshot_dir = snapshot_dir.empty();
  if (flags.GetBool("demo") || owns_snapshot_dir) {
    if (owns_snapshot_dir) {
      snapshot_dir =
          (std::filesystem::temp_directory_path() /
           ("fkd_server_demo_" + std::to_string(::getpid())))
              .string();
    }
    std::printf("training demo model (%lld articles) -> %s ...\n",
                static_cast<long long>(flags.GetInt("demo-articles")),
                snapshot_dir.c_str());
    FKD_CHECK_OK(TrainDemoSnapshot(
        snapshot_dir, static_cast<size_t>(flags.GetInt("demo-articles"))));
  }

  fkd::serve::VersionedModelStore store;
  auto initial = store.Load(snapshot_dir);
  FKD_CHECK_OK(initial.status());
  FKD_CHECK_OK(store.Publish(initial.value()->version));

  fkd::serve::RouterOptions router_options;
  router_options.engine.num_workers =
      static_cast<size_t>(flags.GetInt("workers"));
  fkd::serve::Router router(router_options);
  FKD_CHECK_OK(router.Start(std::move(initial).value()));

  fkd::net::ServerOptions server_options;
  server_options.host = flags.GetString("host");
  server_options.port = static_cast<int>(flags.GetInt("port"));
  server_options.event_loops = static_cast<size_t>(flags.GetInt("loops"));
  server_options.max_inflight =
      static_cast<size_t>(flags.GetInt("max-inflight"));
  server_options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections"));
  server_options.idle_timeout_ms = flags.GetInt("idle-timeout-ms");
  // Swap/canary frames re-load the snapshot directory; a real deployment
  // would point them at a new artifact path, the moves are identical.
  fkd::net::InstallReloadHandlers(snapshot_dir, &router, &store,
                                  &server_options);

  fkd::net::Server server(&router, server_options);
  FKD_CHECK_OK(server.Start());
  std::printf("serving version %llu on %s:%d\n",
              static_cast<unsigned long long>(router.active_version()),
              server_options.host.c_str(), server.bound_port());

  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    // Write-then-rename so a watcher never reads a half-written port.
    const std::string tmp = port_file + ".tmp";
    FILE* f = std::fopen(tmp.c_str(), "w");
    FKD_CHECK(f != nullptr) << "cannot write " << tmp;
    std::fprintf(f, "%d\n", server.bound_port());
    std::fclose(f);
    std::filesystem::rename(tmp, port_file);
  }

  fkd::obs::StatsExporter* exporter =
      fkd::obs::StatsExporter::MaybeStartFromEnvironment();

  while (!g_shutdown.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful sequence: drain the server (every accepted classify resolves
  // and flushes), then the router, then the telemetry.
  std::printf("\nsignal received; draining...\n");
  server.Shutdown();
  router.Stop();
  if (exporter != nullptr) exporter->Stop();
  if (owns_snapshot_dir) {
    std::error_code ec;
    std::filesystem::remove_all(snapshot_dir, ec);
  }

  const fkd::net::ServerStats stats = server.Stats();
  const uint64_t accounted =
      stats.responses_ok + stats.responses_error + stats.responses_dropped;
  std::printf("served %llu classify frames: %llu ok, %llu error, %llu "
              "dropped (client gone)\n",
              static_cast<unsigned long long>(stats.classify_frames),
              static_cast<unsigned long long>(stats.responses_ok),
              static_cast<unsigned long long>(stats.responses_error),
              static_cast<unsigned long long>(stats.responses_dropped));
  FKD_CHECK_EQ(stats.classify_frames, accounted)
      << "accepted requests were silently dropped";
  std::printf("no accepted request was silently dropped; bye\n");
  return 0;
}
