// End-to-end network chaos soak: boots the full serving stack in-process
// (snapshot -> Router -> epoll server), drives it with the resilient
// closed-loop load generator, and walks a deterministic fault schedule
// through the socket-layer FKD_FAULTS sites:
//
//   at 10% of the soak  network chaos: accept failures (EMFILE path), torn
//                       sends, injected RSTs, delayed readiness, dropped
//                       eventfd wakeups
//   at 30%              faults cleared; the stack must recover and keep
//                       serving until the soak ends
//
// Exit is non-zero unless every gate holds:
//   - zero silent drops: classify_frames == ok + error + dropped
//   - router accounting: submitted == cache_hits + primary + canary
//   - the client made progress (ok > 0) under chaos
//   - the client classified every terminal outcome (ok/shed/deadline/io/
//     other all reported, nothing vanished) and never failed to connect
//
//   ./fkd_chaos_drill            # full 60 s soak
//   ./fkd_chaos_drill --quick    # ~5 s variant, registered as a tier-1 test

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/logging.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "net/loadgen.h"
#include "net/server.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"

namespace {

/// Trains a small synthetic detector and freezes it into `snapshot_dir`
/// (same recipe as fkd_server --demo).
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

std::vector<fkd::net::ClassifyRequestMsg> BuildCorpus(size_t articles) {
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(articles, 1337));
  FKD_CHECK_OK(dataset.status());
  std::vector<fkd::net::ClassifyRequestMsg> corpus;
  corpus.reserve(dataset.value().articles.size());
  for (const auto& article : dataset.value().articles) {
    fkd::net::ClassifyRequestMsg msg;
    msg.text = article.text;
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

bool g_failed = false;

void Gate(bool condition, const char* what) {
  if (condition) {
    std::printf("  PASS  %s\n", what);
  } else {
    std::printf("  FAIL  %s\n", what);
    g_failed = true;
  }
}

}  // namespace

int main(int argc, char** argv) {
  fkd::FlagParser flags;
  flags.AddBool("quick", false, "~5 s soak instead of the full 60 s");
  flags.AddInt("duration-s", 0, "soak seconds (0 = 60, or 5 with --quick)");
  flags.AddInt("connections", 4, "loadgen connections");
  flags.AddInt("window", 4, "closed-loop outstanding requests/connection");
  flags.AddInt("articles", 120, "synthetic corpus size for the demo model");
  fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.code() == fkd::StatusCode::kFailedPrecondition ? 0 : 1;
  }
  const bool quick = flags.GetBool("quick");
  int64_t duration_ms = flags.GetInt("duration-s") * 1000;
  if (duration_ms <= 0) duration_ms = quick ? 5000 : 60000;

  // The drill owns the injector: a stray FKD_FAULTS in the environment
  // would make the "deterministic schedule" anything but.
  fkd::FaultInjector& faults = fkd::FaultInjector::Global();
  faults.Clear();

  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() /
       ("fkd_chaos_drill_" + std::to_string(::getpid())))
          .string();
  std::printf("training demo model -> %s ...\n", snapshot_dir.c_str());
  FKD_CHECK_OK(TrainDemoSnapshot(
      snapshot_dir, static_cast<size_t>(flags.GetInt("articles"))));

  fkd::serve::VersionedModelStore store;
  auto model = store.Load(snapshot_dir);
  FKD_CHECK_OK(model.status());
  FKD_CHECK_OK(store.Publish(model.value()->version));

  fkd::serve::Router router;
  FKD_CHECK_OK(router.Start(model.value()));

  fkd::net::ServerOptions server_options;
  server_options.host = "127.0.0.1";
  server_options.port = 0;
  server_options.event_loops = 2;
  fkd::net::Server server(&router, server_options);
  FKD_CHECK_OK(server.Start());
  std::printf("chaos drill serving on 127.0.0.1:%d for %lld ms\n",
              server.bound_port(), static_cast<long long>(duration_ms));

  fkd::net::LoadGenOptions load_options;
  load_options.host = "127.0.0.1";
  load_options.port = server.bound_port();
  load_options.connections =
      static_cast<size_t>(flags.GetInt("connections"));
  load_options.window = static_cast<size_t>(flags.GetInt("window"));
  load_options.duration_ms = duration_ms;
  load_options.warmup_ms = 0;  // chaos phases are the point, measure it all
  load_options.drain_timeout_ms = quick ? 2000 : 5000;
  // Engine-bound traffic: unique texts defeat the score cache, so every
  // request crosses the engine queue while the sockets misbehave.
  load_options.unique_requests = true;
  load_options.corpus = BuildCorpus(64);

  fkd::Result<fkd::net::LoadGenReport> report =
      fkd::Status::Internal("loadgen never ran");
  std::thread load_thread(
      [&] { report = fkd::net::RunLoadGen(load_options); });

  // Deterministic chaos schedule, phase offsets as fractions of the soak.
  const auto start = std::chrono::steady_clock::now();
  auto sleep_until_fraction = [&](double fraction) {
    std::this_thread::sleep_until(
        start + std::chrono::milliseconds(
                    static_cast<int64_t>(duration_ms * fraction)));
  };

  sleep_until_fraction(0.10);
  std::printf("[chaos] arming socket-layer faults\n");
  FKD_CHECK_OK(faults.Configure(
      "net.accept:fail@1*3,net.send:torn@10*3,net.recv:fail@5*3,"
      "net.ready:fail@3*5,net.eventfd:fail@2*2"));

  sleep_until_fraction(0.30);
  std::printf("[chaos] faults cleared\n");
  faults.Clear();

  load_thread.join();
  server.Shutdown();
  router.Stop();

  FKD_CHECK_OK(report.status());
  const fkd::net::LoadGenReport& r = report.value();
  std::printf("loadgen: %s\n", r.ToJson().c_str());

  const fkd::net::ServerStats sstats = server.Stats();
  const fkd::serve::RouterStats rstats = router.Stats();
  std::printf(
      "server: %llu classify frames, %llu ok, %llu error (%llu deadline "
      "shed), %llu dropped, %llu accept pauses\n",
      static_cast<unsigned long long>(sstats.classify_frames),
      static_cast<unsigned long long>(sstats.responses_ok),
      static_cast<unsigned long long>(sstats.responses_error),
      static_cast<unsigned long long>(sstats.deadline_shed),
      static_cast<unsigned long long>(sstats.responses_dropped),
      static_cast<unsigned long long>(sstats.accept_pauses));
  std::printf(
      "router: %llu submitted, %llu cache hits, %llu primary, %llu canary, "
      "%llu rejected\n",
      static_cast<unsigned long long>(rstats.submitted),
      static_cast<unsigned long long>(rstats.cache_hits),
      static_cast<unsigned long long>(rstats.primary_requests),
      static_cast<unsigned long long>(rstats.canary_requests),
      static_cast<unsigned long long>(rstats.rejected));

  std::printf("gates:\n");
  Gate(sstats.classify_frames == sstats.responses_ok +
                                     sstats.responses_error +
                                     sstats.responses_dropped,
       "zero silent drops: classify_frames == ok + error + dropped");
  Gate(rstats.submitted ==
           rstats.cache_hits + rstats.primary_requests +
               rstats.canary_requests,
       "router accounting: submitted == cache_hits + primary + canary");
  Gate(r.ok > 0, "client made progress under chaos");
  Gate(r.io_errors + r.errors + r.shed + r.deadline_exceeded + r.ok > 0 &&
           r.connect_failures == 0,
       "every client-visible outcome classified, no connect failures");

  std::error_code ec;
  std::filesystem::remove_all(snapshot_dir, ec);

  if (g_failed) {
    std::printf("CHAOS DRILL FAILED\n");
    return 1;
  }
  std::printf("chaos drill passed\n");
  return 0;
}
