#ifndef FKD_NET_LOADGEN_H_
#define FKD_NET_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/retry.h"
#include "net/wire.h"

namespace fkd {
namespace net {

/// Configuration of one timed closed-loop run against an FKDN/1 server:
/// each connection keeps `window` requests outstanding, sending a new one
/// the moment a response lands. This drives load for smoke tests and
/// drills; the serving benchmark (perfbench/) owns measurement, including
/// the open loop, which it times from each request's due time.
struct LoadGenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  size_t connections = 4;
  /// Outstanding requests per connection.
  size_t window = 4;
  /// Measured interval; samples completing inside it make the report.
  int64_t duration_ms = 10000;
  /// Ramp-up excluded from every reported number.
  int64_t warmup_ms = 1000;
  /// Per-request engine deadline forwarded in each ClassifyRequest (0 =
  /// none; the propagated client budget still bounds every request).
  int64_t deadline_us = 0;
  /// Request bodies, cycled round-robin per connection. Must be non-empty.
  std::vector<ClassifyRequestMsg> corpus;
  /// Appends a per-request nonce to every text, so no two requests share a
  /// cache key: measures the engine-bound path instead of the score cache.
  bool unique_requests = false;
  /// After the send window closes, wait this long for stragglers.
  int64_t drain_timeout_ms = 5000;
  /// Client-side budget per request (NetClient timer + propagated absolute
  /// deadline). A response lost on the wire times out and is counted as an
  /// error instead of wedging its window slot. 0 = 80% of the drain
  /// timeout, so every straggler resolves inside the drain.
  int64_t request_timeout_us = 0;
  /// Retry discipline of the underlying NetClient (attempts, backoff,
  /// jitter seed). Each connection decorrelates the seed by its index.
  RetryOptions retry;
};

/// Outcome of a run. Terminal-outcome counters (sent/ok/errors/shed/
/// deadline_exceeded/from_cache) cover the measured window only (warmup
/// and drain excluded); io_errors and the client-mechanics counters are
/// whole-run. Latencies are microseconds, submit -> response decoded.
struct LoadGenReport {
  size_t connections = 0;
  size_t window = 0;
  int64_t duration_ms = 0;
  int64_t warmup_ms = 0;

  uint64_t sent = 0;        ///< requests sent in the window
  uint64_t ok = 0;          ///< responses carrying a classification
  uint64_t errors = 0;      ///< non-shed, non-deadline terminal errors
  uint64_t shed = 0;        ///< Unavailable outcomes (admission control)
  uint64_t deadline_exceeded = 0;  ///< deadline misses (server or client)
  uint64_t from_cache = 0;  ///< ok responses served from the score cache
  uint64_t connect_failures = 0;
  uint64_t io_errors = 0;   ///< transport failures that exhausted retries

  // Whole-run client mechanics (not windowed): how hard the resilient
  // client worked to produce the numbers above.
  uint64_t timeouts = 0;  ///< client-side per-request deadline expiries
  uint64_t retries = 0;   ///< backoff/reconnect resubmissions

  double achieved_qps = 0.0;  ///< ok responses per second of window
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;

  /// The pass rule of a load round: ok > 0 and errors, shed,
  /// deadline_exceeded, io_errors, connect_failures and timeouts all zero.
  /// `timeouts` is whole-run, so a server that never answers fails the
  /// round even when its requests expire after the window.
  bool Clean() const;

  /// The report as one flat JSON object.
  std::string ToJson() const;
};

/// Runs one timed load-generation round. Blocks for roughly
/// warmup + duration + drain. Fails only when no connection could be
/// established or the corpus is empty; per-connection mid-run failures are
/// reported in the counters instead.
Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options);

// ---- control-channel one-shots ----------------------------------------------
// Each opens a dedicated connection, performs one round trip and closes —
// used by fkd_loadgen --ping, perfbench and the net tests.

/// kPing round trip; returns the RTT in microseconds.
Result<int64_t> Ping(const std::string& host, int port);

/// kSwapRequest round trip; returns the newly published model version.
Result<uint64_t> RequestSwap(const std::string& host, int port);

/// kCanaryRequest round trip (permille of traffic, 0 stops the canary);
/// returns the canary model version.
Result<uint64_t> RequestCanary(const std::string& host, int port,
                               uint32_t permille);

}  // namespace net
}  // namespace fkd

#endif  // FKD_NET_LOADGEN_H_
