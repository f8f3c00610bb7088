// Serving benchmark: trains a seeded snapshot, launches a fresh
// fkd_server on it, drives one workload over FKDN/1 from this process,
// checks every answer against an in-process reference, and prints the
// metrics (see perfbench/README.md). perfbench/run.py builds and runs it:
//
//   fkd_perfbench --workload=cold_closed --seed=1 --seconds=10 --trace=0
//       --server=<fkd_server binary> --work-dir=<scratch dir>
//
// The last stdout line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it ("report: {...}") carries the sample counts,
// generator lateness, budget checks and the hardware stamp.

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common/flags.h"
#include "common/logging.h"
#include "inputs.h"
#include "layers.h"
#include "server_proc.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "wire.h"

namespace perfbench {
namespace {

/// Server launches per run; setup_s is their median.
constexpr size_t kSetupLaunches = 11;
/// Idle swaps after the window on workloads without in-window swaps;
/// swap_ms is the median of the run's swaps.
constexpr size_t kIdleSwaps = 21;
/// One-second slices are reduced to this quantile of their quieter side:
/// the lower quartile of latencies, the upper quartile of throughputs.
constexpr double kQuietQuantile = 0.25;
/// Gap before each set-up launch and idle swap sample.
constexpr std::chrono::milliseconds kSampleSpacing{100};
/// An open-loop run is invalid when more than 10% of its requests left
/// later than this after their due time: the generator did not keep the
/// schedule. One inter-arrival gap of cold_open. Host stalls that delay a
/// few sends by more still count in the latency metrics (requests are
/// timed from their due time); they just do not void the run.
constexpr double kMaxLatenessP90Us = 5'000.0;
/// Samples a percentile needs beyond it before it is reported.
constexpr size_t kTailSamples = 10;
/// Request/response pairs the codec metrics replay.
constexpr size_t kCodecPairs = 256;
/// Share of the whole Snapshot::Score call the separately timed stages
/// must account for (the stage budget closes within this).
constexpr double kStageTolerance = 0.25;

std::string Num(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Ordered name -> (value, unit) map printed as the "metrics" object.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  std::string Json() const {
    std::string out = "{";
    for (const auto& [name, vu] : values_) {
      if (out.size() > 1) out += ", ";
      out += Quote(name) + ": {\"value\": " + Num(vu.first) +
             ", \"unit\": " + Quote(vu.second) + "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

struct WindowStats {
  uint64_t sent = 0, ok = 0, shed = 0, deadline = 0, io = 0, errors = 0;
  uint64_t from_cache = 0;
  std::vector<double> latency_us;
  std::vector<double> lateness_us;
};

/// Window requests; `slice_parity` 0 or 1 keeps only the even or odd
/// one-second slices (the untraced and traced halves of a traced run),
/// -1 keeps all.
WindowStats Summarize(const WireResult& result, int slice_parity) {
  WindowStats s;
  for (const RequestRecord& rec : result.records) {
    if (!rec.in_window) continue;
    if (slice_parity >= 0 &&
        (rec.due_ns - result.window_start_ns) / 1'000'000'000 % 2 !=
            slice_parity) {
      continue;
    }
    ++s.sent;
    s.lateness_us.push_back(static_cast<double>(rec.sent_ns - rec.due_ns) /
                            1e3);
    switch (rec.outcome) {
      case Outcome::kOk:
        ++s.ok;
        if (rec.from_cache) ++s.from_cache;
        s.latency_us.push_back(rec.LatencyUs());
        break;
      case Outcome::kShed:
        ++s.shed;
        break;
      case Outcome::kDeadline:
        ++s.deadline;
        break;
      case Outcome::kIo:
        ++s.io;
        break;
      case Outcome::kError:
        ++s.errors;
        break;
    }
  }
  return s;
}

int Run(int argc, char** argv) {
  fkd::FlagParser flags;
  flags.AddString("workload", "cold_closed",
                  "cold_open | cold_closed | hot_closed | swap_mixed");
  flags.AddInt("seed", 1, "workload seed: snapshot and request inputs");
  flags.AddDouble("seconds", 10.0, "measured window");
  flags.AddDouble("warmup", 1.0, "warm-up before the window, seconds");
  flags.AddInt("trace", 0, "1 = traced run: per-layer metrics");
  flags.AddDouble("layer-budget", 0.4,
                  "seconds per in-process stage sweep (traced runs)");
  flags.AddString("server", "", "fkd_server binary");
  flags.AddString("work-dir", "", "scratch directory for this run");
  flags.AddString("build-type", "unknown", "hardware stamp: build type");
  flags.AddString("commit", "unknown", "hardware stamp: source revision");
  flags.AddInt("perturb-ulps", 0,
               "self-test hook: skew every reference probability");
  fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  auto workload = ParseWorkload(flags.GetString("workload"));
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  const std::string work_dir = flags.GetString("work-dir");
  const std::string server_bin = flags.GetString("server");
  if (work_dir.empty() || server_bin.empty()) {
    std::fprintf(stderr, "--work-dir and --server are required\n");
    return 2;
  }
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed"));
  const double seconds = flags.GetDouble("seconds");
  const bool trace = flags.GetInt("trace") != 0;
  const LoadShape shape = ShapeOf(workload.value());
  std::filesystem::create_directories(work_dir);

  // ---- untimed set-up: snapshot, reference model, inputs ------------------
  const std::string snapshot_dir = work_dir + "/snapshot";
  std::filesystem::remove_all(snapshot_dir);
  FKD_CHECK_OK(TrainSnapshot(seed, snapshot_dir));
  auto snapshot = fkd::serve::LoadSnapshot(snapshot_dir);
  FKD_CHECK_OK(snapshot.status());
  auto source = RequestSource::Create(seed,
                                      snapshot.value().creator_states.rows(),
                                      snapshot.value().subject_states.rows());
  FKD_CHECK_OK(source.status());

  // ---- setup_s: launch -> first pong over kSetupLaunches launches. They
  // are spaced out and split around the wire run, so one noisy moment of
  // the host cannot set the figure.
  std::vector<double> setup_s;
  auto probe_launches = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_for(kSampleSpacing);
      ServerProcess probe;
      auto started = probe.Start(server_bin, snapshot_dir, work_dir);
      FKD_CHECK_OK(started.status());
      setup_s.push_back(started.value());
      // A probe may be stopped before fkd_server has installed its signal
      // handlers, so its exit status says nothing; the served run's does.
      (void)probe.Stop();
    }
  };
  probe_launches(kSetupLaunches / 2);
  ServerProcess server;
  {
    auto started = server.Start(server_bin, snapshot_dir, work_dir);
    FKD_CHECK_OK(started.status());
    setup_s.push_back(started.value());
  }

  // ---- the wire run ------------------------------------------------------
  WireOptions wire;
  wire.workload = workload.value();
  wire.port = server.port();
  wire.warmup_s = flags.GetDouble("warmup");
  wire.seconds = seconds;
  wire.trace = trace;
  wire.source = &source.value();
  auto run = RunWire(wire);
  FKD_CHECK_OK(run.status());
  WireResult& result = run.value();

  auto rss = server.PeakRssMb();
  FKD_CHECK_OK(rss.status());
  std::vector<double> swap_ms = result.swap_ms;
  if (shape.swaps == 0) {
    auto idle = IdleSwaps(server.port(), kIdleSwaps, kSampleSpacing / 2);
    FKD_CHECK_OK(idle.status());
    swap_ms = idle.value();
  }
  const fkd::Status stopped = server.Stop();
  probe_launches(kSetupLaunches - 1 - kSetupLaunches / 2);

  // ---- correctness -------------------------------------------------------
  const AnswerCheck answers =
      CheckAnswers(result.records, source.value(), snapshot.value(),
                   static_cast<int>(flags.GetInt("perturb-ulps")));
  const WireBudget budget = CheckWireBudget(result.records);
  const WindowStats all = Summarize(result, -1);
  const double lateness_p50 = Median(all.lateness_us);
  const double lateness_p99 = Quantile(all.lateness_us, 0.99);
  const double lateness_max = Quantile(all.lateness_us, 1.0);
  const bool schedule_kept =
      shape.open_qps <= 0.0 ||
      Quantile(all.lateness_us, 0.9) <= kMaxLatenessP90Us;
  const uint64_t failed = all.sent - all.ok + answers.mismatches;
  const bool correct = answers.mismatches == 0 && budget.violations == 0 &&
                       result.swap_failures == 0 && stopped.ok() &&
                       schedule_kept && all.ok > 0;
  const bool has_p999 = all.latency_us.size() >= kTailSamples * 1000;
  // The window is cut into one-second slices (by due time). Interference
  // from other tenants of a shared host only ever slows a slice down, so
  // the end-to-end figures are taken from the quieter slices: qps is the
  // upper quartile of per-slice throughput, p50/p90 the lower quartile of
  // per-slice percentiles (kQuietQuantile). Whole-window figures and the
  // per-slice table go to the report.
  const double slice_s = std::min(1.0, result.window_s);
  std::vector<std::vector<double>> slices(
      static_cast<size_t>(result.window_s / slice_s));
  for (const RequestRecord& rec : result.records) {
    if (!rec.in_window || rec.outcome != Outcome::kOk) continue;
    const auto s = static_cast<size_t>(
        static_cast<double>(rec.due_ns - result.window_start_ns) /
        (slice_s * 1e9));
    if (s < slices.size()) slices[s].push_back(rec.LatencyUs());
  }
  std::vector<double> slice_ok, slice_p50, slice_p90;
  std::string by_second = "[";
  for (const auto& slice : slices) {
    slice_ok.push_back(static_cast<double>(slice.size()));
    slice_p50.push_back(Quantile(slice, 0.5));
    slice_p90.push_back(Quantile(slice, 0.9));
    by_second += (by_second.size() > 1 ? ", [" : "[") +
                 std::to_string(slice.size()) + ", " + Num(slice_p50.back()) +
                 ", " + Num(slice_p90.back()) + ", " +
                 Num(Quantile(slice, 0.99)) + "]";
  }
  by_second += "]";
  const double qps = Quantile(slice_ok, 1.0 - kQuietQuantile) / slice_s;
  const double p50 = Quantile(slice_p50, kQuietQuantile);
  const double p90 = Quantile(slice_p90, kQuietQuantile);

  Metrics metrics;
  std::string extra;
  if (!trace) {
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("qps", qps, "1/s");
    metrics.Set("p50_us", p50, "us");
    metrics.Set("p90_us", p90, "us");
    metrics.Set("rss_mb", rss.value(), "MiB");
  } else {
    // Swap round trips drift by more than the 25% an end-to-end bound may
    // allow on a shared host, so swap_ms is tracked here, ungated.
    metrics.Set("swap_ms", Median(swap_ms), "ms");
    // net: wire-side residual, codec, frames, shed and retries.
    std::vector<double> residual, queue, batch_wait, compute, batch_size;
    std::vector<std::pair<fkd::net::ClassifyRequestMsg,
                          fkd::net::ClassifyResponseMsg>> pairs;
    std::vector<uint32_t> ids;
    for (const RequestRecord& rec : result.records) {
      if (!rec.in_window) continue;
      ids.push_back(rec.text_id);
      if (rec.outcome != Outcome::kOk) continue;
      residual.push_back(rec.RttUs() - rec.ServerUs());
      if (!rec.from_cache) {
        queue.push_back(rec.queue_us);
        batch_wait.push_back(rec.batch_us);
        compute.push_back(rec.compute_us);
        batch_size.push_back(rec.batch_size);
      }
      if (pairs.size() < kCodecPairs) {
        fkd::net::ClassifyRequestMsg req = source.value().Request(rec.text_id);
        req.deadline_unix_us = 1'700'000'000'000'000;  // as the client stamps
        fkd::net::ClassifyResponseMsg resp;
        resp.ok = true;
        resp.class_id = rec.class_id;
        resp.class_name = snapshot.value().class_names.at(rec.class_id);
        resp.probabilities.assign(rec.probs.begin(),
                                  rec.probs.begin() + rec.num_probs);
        resp.model_version = rec.model_version;
        resp.batch_size = rec.batch_size;
        resp.from_cache = rec.from_cache;
        resp.queue_us = rec.queue_us;
        resp.batch_us = rec.batch_us;
        resp.compute_us = rec.compute_us;
        resp.cache_us = rec.cache_us;
        resp.total_us = rec.total_us;
        pairs.emplace_back(std::move(req), std::move(resp));
      }
    }
    const double budget_s = flags.GetDouble("layer-budget");
    const CodecMetrics codec = MeasureCodec(pairs, budget_s);
    metrics.Set("net.rtt_residual_us", Quantile(residual, 0.5), "us");
    metrics.Set("net.codec_ns", codec.ns_per_pair, "ns");
    metrics.Set("net.frame_bytes", codec.bytes_per_pair, "bytes");
    metrics.Set("net.shed_ratio",
                all.sent == 0 ? 0.0
                              : static_cast<double>(all.shed) /
                                    static_cast<double>(all.sent),
                "ratio");
    metrics.Set("net.retries_per_1k",
                result.submitted == 0
                    ? 0.0
                    : 1000.0 * static_cast<double>(result.retries) /
                          static_cast<double>(result.submitted),
                "1/1000");
    metrics.Set("router.cache_hit_ratio",
                all.ok == 0 ? 0.0
                            : static_cast<double>(all.from_cache) /
                                  static_cast<double>(all.ok),
                "ratio");
    metrics.Set("engine.queue_us", Median(queue), "us");
    metrics.Set("engine.batch_wait_us", Median(batch_wait), "us");
    metrics.Set("engine.compute_us", Median(compute), "us");
    metrics.Set("engine.batch_size", Median(batch_size), "count");

    // In-process replay: store, router, text, core, tensor, pool.
    SpanLog replay_spans;
    auto layers = MeasureLayers(snapshot_dir, snapshot.value(), source.value(),
                                ids, budget_s, &replay_spans);
    FKD_CHECK_OK(layers.status());
    const LayerMetrics& m = layers.value();
    metrics.Set("store.load_ms", m.store_load_ms, "ms");
    metrics.Set("store.resident_bytes", m.store_resident_bytes, "bytes");
    metrics.Set("router.publish_ms", m.router_publish_ms, "ms");
    metrics.Set("router.hit_submit_us", m.router_hit_submit_us, "us");
    for (const auto& [suffix, b] :
         {std::pair<const char*, const StageBudget*>{"b1", &m.b1},
          {"bmax", &m.bmax}}) {
      const std::string s = std::string(".") + suffix;
      metrics.Set("text.prepare_us_per_article" + s, b->prepare_us, "us");
      metrics.Set("core.hflu_us_per_article" + s, b->hflu_us, "us");
      metrics.Set("core.aggregate_us_per_article" + s, b->aggregate_us, "us");
      metrics.Set("core.gdu_us_per_article" + s, b->gdu_us, "us");
      metrics.Set("core.head_us_per_article" + s, b->head_us, "us");
      metrics.Set("core.score_us_per_article" + s, b->score_us, "us");
      metrics.Set("core.residual_us_per_article" + s, b->ResidualUs(), "us");
    }
    metrics.Set("tensor.tape_nodes_per_article", m.tape_nodes_per_article,
                "count");
    metrics.Set("pool.regions_per_batch", m.pool_regions_per_batch, "count");
    metrics.Set("pool.tasks_per_batch", m.pool_tasks_per_batch, "count");

    // Self time per layer, per traced request, from the wire spans.
    const auto self = SelfTimes(result.spans);
    const auto requests = self.count("net.request") != 0
                              ? static_cast<double>(self.at("net.request").count)
                              : 0.0;
    const std::pair<const char*, const char*> self_names[] = {
        {"net.request", "self.net_us"},
        {"serve.server", "self.server_us"},
        {"serve.router.cache", "self.router_us"},
        {"serve.engine.queue", "self.engine_queue_us"},
        {"serve.engine.batch", "self.engine_batch_us"},
        {"serve.engine.compute", "self.engine_compute_us"}};
    for (const auto& [span, metric] : self_names) {
      const auto it = self.find(span);
      metrics.Set(metric,
                  it == self.end() || requests == 0
                      ? 0.0
                      : it->second.total_us / requests,
                  "us");
    }

    // Tracing overhead: traced (odd) vs untraced (even) one-second slices
    // of this same window.
    const WindowStats traced = Summarize(result, 1);
    const WindowStats untraced = Summarize(result, 0);
    const auto traced_slices = static_cast<double>(slices.size() / 2);
    const auto untraced_slices =
        static_cast<double>(slices.size()) - traced_slices;
    metrics.Set("trace.overhead_p50_us",
                Quantile(traced.latency_us, 0.5) -
                    Quantile(untraced.latency_us, 0.5),
                "us");
    metrics.Set("trace.overhead_qps",
                traced_slices == 0
                    ? 0.0
                    : (static_cast<double>(traced.ok) / traced_slices -
                       static_cast<double>(untraced.ok) / untraced_slices) /
                          slice_s,
                "1/s");

    SpanLog all_spans;
    all_spans.Append(std::move(result.spans));
    all_spans.Append(std::move(replay_spans));
    const std::string trace_path =
        work_dir + "/trace-" + WorkloadName(workload.value()) + ".json";
    FKD_CHECK_OK(WriteChromeTrace(all_spans, 20000, trace_path));
    extra = ", \"trace_file\": " + Quote(trace_path) +
            ", \"spans\": " + std::to_string(all_spans.size()) +
            ", \"max_batch\": " + std::to_string(m.max_batch) +
            ", \"stage_budget_closed\": " +
            ((m.b1.Closes(kStageTolerance) && m.bmax.Closes(kStageTolerance))
                 ? "true"
                 : "false") +
            ", \"stage_tolerance\": " + Num(kStageTolerance);
  }

  utsname host{};
  ::uname(&host);
  std::string report =
      "{\"workload\": " + Quote(WorkloadName(workload.value())) +
      ", \"seed\": " + std::to_string(seed) +
      ", \"trace\": " + (trace ? "1" : "0") +
      ", \"seconds\": " + Num(seconds) +
      ", \"sent\": " + std::to_string(all.sent) +
      ", \"ok\": " + std::to_string(all.ok) +
      ", \"shed\": " + std::to_string(all.shed) +
      ", \"deadline\": " + std::to_string(all.deadline) +
      ", \"io\": " + std::to_string(all.io) +
      ", \"errors\": " + std::to_string(all.errors) +
      ", \"wrong_answers\": " + std::to_string(answers.mismatches) +
      ", \"answers_checked\": " + std::to_string(answers.checked) +
      ", \"fail_ratio\": " +
      Num(all.sent == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(all.sent)) +
      ", \"latency_samples\": " + std::to_string(all.latency_us.size()) +
      ", \"qps\": " + Num(qps) + ", \"p50_us\": " + Num(p50) +
      ", \"p90_us\": " + Num(p90) +
      ", \"window_qps\": " +
      Num(static_cast<double>(all.ok) / result.window_s) +
      ", \"window_p50_us\": " + Num(Quantile(all.latency_us, 0.5)) +
      ", \"window_p99_us\": " + Num(Quantile(all.latency_us, 0.99)) +
      (has_p999 ? ", \"window_p999_us\": " +
                      Num(Quantile(all.latency_us, 0.999))
                : std::string()) +
      ", \"by_second\": " + by_second +
      ", \"setup_s_samples\": " + std::to_string(setup_s.size()) +
      ", \"swap_ms\": " + Num(Median(swap_ms)) +
      ", \"swap_ms_min\": " + Num(Quantile(swap_ms, 0.0)) +
      ", \"swap_samples\": " + std::to_string(swap_ms.size()) +
      ", \"swaps_under_load\": " + (shape.swaps > 0 ? "true" : "false") +
      ", \"gen_lateness_p50_us\": " + Num(lateness_p50) +
      ", \"gen_lateness_p99_us\": " + Num(lateness_p99) +
      ", \"gen_lateness_max_us\": " + Num(lateness_max) +
      ", \"schedule_kept\": " + (schedule_kept ? "true" : "false") +
      ", \"budget_checked\": " + std::to_string(budget.checked) +
      ", \"budget_violations\": " + std::to_string(budget.violations) +
      ", \"budget_max_violation_us\": " + Num(budget.max_violation_us) +
      ", \"server_shutdown_ok\": " + (stopped.ok() ? "true" : "false") +
      ", \"bench_rss_mb\": " + Num(PeakRssMbOf(::getpid()).value_or(0.0)) +
      extra +
      ", \"stamp\": {\"nproc\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + Quote(CpuModel()) +
      ", \"kernel\": " + Quote(host.release) +
      ", \"FKD_NUM_THREADS\": " + Quote(EnvOr("FKD_NUM_THREADS", "")) +
      ", \"build_type\": " + Quote(flags.GetString("build-type")) +
      ", \"commit\": " + Quote(flags.GetString("commit")) + "}}";
  if (!stopped.ok()) std::fprintf(stderr, "%s\n", stopped.ToString().c_str());
  std::filesystem::remove_all(snapshot_dir);

  std::printf("report: %s\n", report.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(all.sent, 1)),
              static_cast<unsigned long long>(failed), metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
