#include "wire.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "net/loadgen.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Sleeps until `deadline_ns`, spinning through the last stretch so an
/// open-loop send leaves on time instead of one scheduler tick late.
void WaitUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 150'000;
  const int64_t now = NowNs();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (NowNs() < deadline_ns) {
  }
}

/// One load connection: a NetClient plus what its I/O thread records.
/// `records` and `spans` are touched only from the client's callbacks
/// (its I/O thread) until the client is stopped.
struct Connection {
  size_t index = 0;
  std::unique_ptr<fkd::net::NetClient> client;
  Records records;
  SpanLog spans;
  std::atomic<int64_t> outstanding{0};
  std::atomic<uint64_t> next_k{0};  ///< closed loop: next stream position
};

struct RunState {
  const WireOptions* options = nullptr;
  LoadShape shape;
  int64_t window_start_ns = 0;
  int64_t window_end_ns = 0;
  /// Set once the drain is over: callbacks after it are lost requests.
  std::atomic<bool> abandoned{false};
};

/// Text id of stream position `g` (global over connections).
uint32_t TextIdAt(const RunState& run, uint64_t g) {
  const double share = run.shape.unique_share;
  if (share >= 1.0) return RequestSource::UniqueId(g);
  const bool unique =
      share > 0.0 && static_cast<double>(Mix(run.options->source->seed(), g) %
                                         1000) < share * 1000.0;
  return unique ? RequestSource::UniqueId(g)
                : static_cast<uint32_t>(g % kHotCorpus);
}

/// Stream position `g` due at `due_ns` records spans: traced runs trace
/// the odd one-second slices of the window, sampled by trace_stride.
bool Traced(const RunState& run, uint64_t g, int64_t due_ns) {
  if (!run.options->trace || due_ns < run.window_start_ns) return false;
  return ((due_ns - run.window_start_ns) / 1'000'000'000) % 2 == 1 &&
         g % run.shape.trace_stride == 0;
}

void RecordSpans(const RequestRecord& rec, SpanLog* spans) {
  const int32_t root =
      spans->Add("net.request", rec.sent_ns, rec.done_ns, -1, rec.request_id);
  if (rec.due_ns < rec.sent_ns) {
    spans->Add("gen.late", rec.due_ns, rec.sent_ns, -1, rec.request_id);
  }
  if (rec.outcome != Outcome::kOk) return;
  // The server reports durations, not instants: its total is centred in the
  // round trip and its stamped stages laid out in pipeline order inside it.
  const auto total_ns = static_cast<int64_t>(rec.ServerUs() * 1e3);
  const int64_t start = rec.sent_ns + (rec.done_ns - rec.sent_ns - total_ns) / 2;
  const int32_t server = spans->Add("serve.server", start, start + total_ns,
                                    root, rec.request_id);
  int64_t cursor = start;
  const std::pair<const char*, float> stages[] = {
      {"serve.router.cache", rec.cache_us},
      {"serve.engine.queue", rec.queue_us},
      {"serve.engine.batch", rec.batch_us},
      {"serve.engine.compute", rec.compute_us}};
  for (const auto& [name, us] : stages) {
    const auto ns = static_cast<int64_t>(static_cast<double>(us) * 1e3);
    if (ns <= 0) continue;
    spans->Add(name, cursor, cursor + ns, server, rec.request_id);
    cursor += ns;
  }
}

void Submit(RunState* run, Connection* conn, uint64_t g, int64_t due_ns);

void OnDone(RunState* run, Connection* conn, RequestRecord rec,
            const fkd::Result<fkd::net::ClassifyResponseMsg>& result) {
  rec.done_ns = NowNs();
  if (run->abandoned.load(std::memory_order_acquire)) {
    rec.outcome = Outcome::kIo;
  } else if (result.ok() && result.value().ok) {
    const auto& msg = result.value();
    rec.outcome = Outcome::kOk;
    rec.class_id = msg.class_id;
    rec.model_version = msg.model_version;
    rec.batch_size = msg.batch_size;
    rec.from_cache = msg.from_cache;
    rec.queue_us = static_cast<float>(msg.queue_us);
    rec.batch_us = static_cast<float>(msg.batch_us);
    rec.compute_us = static_cast<float>(msg.compute_us);
    rec.cache_us = static_cast<float>(msg.cache_us);
    rec.total_us = static_cast<float>(msg.total_us);
    if (msg.probabilities.size() <= kMaxClasses) {
      rec.num_probs = static_cast<uint8_t>(msg.probabilities.size());
      std::copy(msg.probabilities.begin(), msg.probabilities.end(),
                rec.probs.begin());
    } else {
      rec.outcome = Outcome::kError;
    }
  } else {
    const fkd::StatusCode code =
        result.ok() ? static_cast<fkd::StatusCode>(result.value().status_code)
                    : result.status().code();
    switch (code) {
      case fkd::StatusCode::kUnavailable:
        rec.outcome = Outcome::kShed;
        break;
      case fkd::StatusCode::kDeadlineExceeded:
        rec.outcome = Outcome::kDeadline;
        break;
      case fkd::StatusCode::kIoError:
        rec.outcome = Outcome::kIo;
        break;
      default:
        rec.outcome = Outcome::kError;
        break;
    }
  }
  if (rec.traced) RecordSpans(rec, &conn->spans);
  conn->records.push_back(rec);
  const bool closed = run->shape.open_qps <= 0.0;
  if (closed && !run->abandoned.load(std::memory_order_acquire) &&
      NowNs() < run->window_end_ns) {
    const uint64_t k = conn->next_k.fetch_add(1, std::memory_order_relaxed);
    Submit(run, conn, k * run->shape.connections + conn->index, 0);
  }
  conn->outstanding.fetch_sub(1, std::memory_order_acq_rel);
}

/// Sends stream position `g`. `due_ns` 0 means "now" (closed loop).
void Submit(RunState* run, Connection* conn, uint64_t g, int64_t due_ns) {
  RequestRecord rec;
  rec.text_id = TextIdAt(*run, g);
  rec.request_id = (static_cast<uint64_t>(conn->index) << 48) | g;
  fkd::net::ClassifyRequestMsg msg = run->options->source->Request(rec.text_id);
  rec.sent_ns = NowNs();
  rec.due_ns = due_ns > 0 ? due_ns : rec.sent_ns;
  rec.in_window = rec.due_ns >= run->window_start_ns &&
                  rec.due_ns < run->window_end_ns;
  rec.traced = Traced(*run, g, rec.due_ns);
  conn->outstanding.fetch_add(1, std::memory_order_acq_rel);
  conn->client->Submit(
      std::move(msg),
      [run, conn, rec](fkd::Result<fkd::net::ClassifyResponseMsg> result) {
        OnDone(run, conn, rec, result);
      });
}

}  // namespace

fkd::Result<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kColdOpen, Workload::kColdClosed,
                     Workload::kHotClosed, Workload::kSwapMixed}) {
    if (name == WorkloadName(w)) return w;
  }
  return fkd::Status::InvalidArgument("unknown workload: " + name);
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kColdOpen:
      return "cold_open";
    case Workload::kColdClosed:
      return "cold_closed";
    case Workload::kHotClosed:
      return "hot_closed";
    case Workload::kSwapMixed:
      return "swap_mixed";
  }
  return "?";
}

LoadShape ShapeOf(Workload workload) {
  LoadShape shape;
  switch (workload) {
    case Workload::kColdOpen:
      shape.connections = 2;
      shape.open_qps = 200.0;
      shape.unique_share = 1.0;
      break;
    case Workload::kColdClosed:
      shape.connections = 2;
      shape.window = 8;
      shape.unique_share = 1.0;
      break;
    case Workload::kHotClosed:
      shape.connections = 2;
      shape.window = 4;
      shape.trace_stride = 16;
      break;
    case Workload::kSwapMixed:
      shape.connections = 1;
      shape.window = 4;
      shape.unique_share = 0.1;
      shape.swaps = 20;
      break;
  }
  return shape;
}

fkd::Result<WireResult> RunWire(const WireOptions& options) {
  if (options.source == nullptr || options.port <= 0 || options.seconds <= 0) {
    return fkd::Status::InvalidArgument("incomplete wire options");
  }
  RunState run;
  run.options = &options;
  run.shape = ShapeOf(options.workload);

  std::vector<std::unique_ptr<Connection>> conns;
  for (size_t c = 0; c < run.shape.connections; ++c) {
    auto conn = std::make_unique<Connection>();
    conn->index = c;
    fkd::net::NetClientOptions client_options;
    client_options.port = options.port;
    client_options.retry.seed += c;
    conn->client = std::make_unique<fkd::net::NetClient>(client_options);
    FKD_RETURN_NOT_OK(conn->client->Start());
    conns.push_back(std::move(conn));
  }

  const int64_t t0 = NowNs();
  run.window_start_ns = t0 + static_cast<int64_t>(options.warmup_s * 1e9);
  run.window_end_ns =
      run.window_start_ns + static_cast<int64_t>(options.seconds * 1e9);

  WireResult out;
  out.window_start_ns = run.window_start_ns;
  out.window_s = options.seconds;

  std::thread swapper;
  if (run.shape.swaps > 0) {
    swapper = std::thread([&] {
      for (size_t i = 0; i < run.shape.swaps; ++i) {
        WaitUntil(run.window_start_ns +
                  static_cast<int64_t>((static_cast<double>(i) + 0.5) *
                                       options.seconds * 1e9 /
                                       static_cast<double>(run.shape.swaps)));
        const int64_t start = NowNs();
        if (fkd::net::RequestSwap("127.0.0.1", options.port).ok()) {
          out.swap_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
        } else {
          ++out.swap_failures;
        }
      }
    });
  }

  if (run.shape.open_qps > 0.0) {
    const double interval_ns = 1e9 / run.shape.open_qps;
    for (uint64_t k = 0;; ++k) {
      const int64_t due =
          t0 + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
      if (due >= run.window_end_ns) break;
      WaitUntil(due);
      Connection* conn = conns[k % conns.size()].get();
      Submit(&run, conn, k, due);
    }
  } else {
    for (auto& conn : conns) {
      for (size_t w = 0; w < run.shape.window; ++w) {
        const uint64_t k = conn->next_k.fetch_add(1, std::memory_order_relaxed);
        Submit(&run, conn.get(), k * run.shape.connections + conn->index, 0);
      }
    }
    while (NowNs() < run.window_end_ns) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (swapper.joinable()) swapper.join();

  // Drain: every request resolves within the client's own timeout; the
  // drain only bounds how long the benchmark waits for that.
  const int64_t drain_end = NowNs() + 15'000'000'000;
  for (auto& conn : conns) {
    while (conn->outstanding.load(std::memory_order_acquire) > 0 &&
           NowNs() < drain_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Stop fails whatever is still pending; those callbacks record kIo.
  run.abandoned.store(true, std::memory_order_release);
  for (auto& conn : conns) conn->client->Stop();
  for (auto& conn : conns) {
    const fkd::net::NetClientStats stats = conn->client->Stats();
    out.submitted += stats.submitted;
    out.retries += stats.retries;
    // Move record by record, releasing each connection's blocks as it goes.
    while (!conn->records.empty()) {
      out.records.push_back(conn->records.front());
      conn->records.pop_front();
    }
    out.spans.Append(std::move(conn->spans));
  }
  return out;
}

fkd::Result<std::vector<double>> IdleSwaps(int port, size_t count,
                                           std::chrono::milliseconds spacing) {
  std::vector<double> ms;
  for (size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_for(spacing);
    const int64_t start = NowNs();
    FKD_RETURN_NOT_OK(fkd::net::RequestSwap("127.0.0.1", port).status());
    ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return ms;
}

}  // namespace perfbench
