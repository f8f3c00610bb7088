#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/status.h"
#include "inputs.h"
#include "net/client.h"
#include "spans.h"

namespace perfbench {

/// The four traffic mixes (see BENCHMARK.json for why each exists).
enum class Workload { kColdOpen, kColdClosed, kHotClosed, kSwapMixed };

fkd::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

/// Classes a response may carry probabilities for: the benchmark's
/// snapshot is a binary (credible / not credible) detector. A response
/// with more is counted as an error. Kept small because a hot_closed run
/// records about two million requests.
inline constexpr size_t kMaxClasses = 2;

/// How one request ended, as the client saw it.
enum class Outcome : uint8_t { kOk, kShed, kDeadline, kIo, kError };

/// One request of a wire run. Times are steady-clock nanoseconds; server
/// segments are the microseconds the server stamped into the response.
struct RequestRecord {
  int64_t due_ns = 0;   ///< scheduled send time (== sent_ns in a closed loop)
  int64_t sent_ns = 0;  ///< when Submit was called
  int64_t done_ns = 0;  ///< when the callback fired
  uint64_t request_id = 0;
  uint64_t model_version = 0;
  uint32_t text_id = 0;
  uint32_t batch_size = 0;
  int32_t class_id = -1;
  Outcome outcome = Outcome::kError;
  bool in_window = false;
  bool traced = false;
  bool from_cache = false;
  uint8_t num_probs = 0;
  std::array<float, kMaxClasses> probs{};
  float queue_us = 0, batch_us = 0, compute_us = 0, cache_us = 0,
        total_us = 0;

  /// Client round trip: Submit to callback.
  double RttUs() const { return static_cast<double>(done_ns - sent_ns) / 1e3; }
  /// Server time from router entry to fulfilment. A cache hit's total
  /// covers its lookup; an engine-served total starts at the engine
  /// submit, after the router's cache lookup, so the lookup adds to it.
  double ServerUs() const {
    return from_cache ? static_cast<double>(total_us)
                      : static_cast<double>(cache_us) + total_us;
  }
  /// Latency a user sees: due time to callback (open loop: includes any
  /// generator lateness, so stalls are never hidden).
  double LatencyUs() const {
    return static_cast<double>(done_ns - due_ns) / 1e3;
  }
};

/// A deque: a run keeps millions of records, and growing one never copies
/// them (a vector's doubling would briefly hold two copies).
using Records = std::deque<RequestRecord>;

/// Load shape of a workload: at most 4 connections in total.
struct LoadShape {
  size_t connections = 1;
  size_t window = 1;        ///< outstanding requests per connection (closed)
  double open_qps = 0.0;    ///< > 0: open loop at this aggregate rate
  double unique_share = 0;  ///< share of requests with a unique text
  size_t swaps = 0;         ///< kSwapRequest hot swaps inside the window
  /// Traced runs record spans for every trace_stride-th request of a
  /// traced slice, so a ~80k req/s workload keeps its spans to megabytes.
  size_t trace_stride = 1;
};
LoadShape ShapeOf(Workload workload);

struct WireOptions {
  Workload workload = Workload::kColdClosed;
  int port = 0;
  double warmup_s = 1.0;
  double seconds = 10.0;
  /// Traced run: every other one-second slice of the window records spans,
  /// the slices between stay untraced, so the two can be compared.
  bool trace = false;
  const RequestSource* source = nullptr;
};

struct WireResult {
  Records records;  ///< every request, warm-up included
  int64_t window_start_ns = 0;
  double window_s = 0.0;
  std::vector<double> swap_ms;         ///< in-window swap round trips
  uint64_t swap_failures = 0;
  uint64_t submitted = 0;              ///< NetClient totals over connections
  uint64_t retries = 0;
  SpanLog spans;
};

/// Drives one workload against a running server from this process.
fkd::Result<WireResult> RunWire(const WireOptions& options);

/// `count` kSwapRequest round trips on an idle server, `spacing` apart,
/// in milliseconds.
fkd::Result<std::vector<double>> IdleSwaps(int port, size_t count,
                                           std::chrono::milliseconds spacing);

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
