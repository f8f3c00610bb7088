#ifndef FKD_NET_CLIENT_H_
#define FKD_NET_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "net/retry.h"
#include "net/wire.h"

namespace fkd {
namespace net {

/// Tuning knobs of the resilient FKDN/1 client.
struct NetClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;

  /// Per-request budget when the request itself does not carry one
  /// (deadline_unix_us == 0). Every request ends one way or another within
  /// its budget: a response lost to a mid-stream disconnect times out and
  /// fails with DeadlineExceeded instead of hanging its slot forever.
  int64_t default_timeout_us = 5'000'000;

  /// Stamp the absolute deadline into outgoing requests so the server can
  /// shed expired work at admission and score against the remaining
  /// budget (deadline propagation; see ClassifyRequestMsg).
  bool propagate_deadline = true;

  /// Retry discipline for every retryable answer (Status::IsRetryable:
  /// Unavailable or IoError, as a response or an error frame) and for
  /// transport failures. The serving engine fails fast, so these are the
  /// only retries a request gets.
  RetryOptions retry;

  /// Hedged requests: a speculative second copy of a slow request on a
  /// separate connection. Disabled by default.
  HedgeOptions hedge;

  /// Clock source; tests may inject a FakeClock. Null = Clock::Real().
  Clock* clock = nullptr;
};

/// Monotone counters describing a client's lifetime so far. Every Submit
/// resolves exactly one way:
///   submitted == ok + shed + deadline_exceeded + transport_errors + other_errors
struct NetClientStats {
  uint64_t submitted = 0;          ///< Requests accepted by Submit().
  uint64_t ok = 0;                 ///< Completed with a classification.
  uint64_t shed = 0;               ///< Final answer was Unavailable (shed).
  uint64_t deadline_exceeded = 0;  ///< Server- or client-side deadline.
  uint64_t transport_errors = 0;   ///< Final answer was IoError (connection
                                   ///< loss or a failed batch).
  uint64_t other_errors = 0;       ///< Any other terminal error.
  uint64_t retries = 0;            ///< Resubmissions (backoff or reconnect).
  uint64_t hedges = 0;             ///< Speculative second attempts launched.
  uint64_t hedge_wins = 0;         ///< Hedge answered before the primary.
  uint64_t reconnects = 0;         ///< Primary connections re-established.
  uint64_t timeouts = 0;           ///< Client-side deadline expiries.
};

/// Resilient asynchronous FKDN/1 classify client: one multiplexed
/// connection (plus a lazy second one for hedges), per-request deadlines,
/// retry with deadline-bounded exponential backoff + deterministic jitter
/// on retryable answers (a shed, a failed batch) and transport failures,
/// and idempotent resubmission.
///
///  - **One retry layer** — the client owns the deadline, so it alone
///    retries: the engine fails a batch fast and the server never
///    resubmits, so attempts never multiply across layers. A sick replica
///    is kept out of rotation by the router's quarantine, not by retries.
///  - **Request identity** — every logical request keeps one request id
///    across all its attempts (retries, reconnect resends, hedges). The
///    first response with that id wins and completes the request; any
///    later duplicate finds no pending entry and is dropped. Retries can
///    therefore never double-count.
///  - **Deadlines** — each request carries an absolute budget. Locally it
///    bounds retries (a retry that would wake with no useful budget left
///    is not sent) and expires the request if no response arrives;
///    propagated (deadline_unix_us) it lets the server shed expired work
///    at admission.
///  - **Connection loss** — the I/O thread reconnects with the same
///    backoff discipline and resubmits every pending request whose policy
///    still allows an attempt; the rest fail with the transport error.
///  - **Hedging** — optionally, a request still unanswered after the
///    observed p99 (or a fixed delay) is sent again on a second
///    connection; first answer wins, the loser is ignored by id.
///
/// Threading: Submit() may be called from any thread. Callbacks are
/// invoked on the internal I/O thread and must not block; calling back
/// into Submit() from a callback is allowed.
class NetClient {
 public:
  using Callback = std::function<void(Result<ClassifyResponseMsg>)>;

  explicit NetClient(NetClientOptions options);
  ~NetClient();

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Spawns the I/O thread and attempts the first connect (asynchronously;
  /// a server that is down at Start just makes the first requests go
  /// through the reconnect path). One Start per client.
  Status Start();

  /// Fails all pending requests with Unavailable and joins the I/O
  /// thread. Idempotent; implied by the destructor.
  void Stop();

  /// Classifies asynchronously. The callback fires exactly once, with the
  /// decoded response (server errors arrive as a message with ok=false)
  /// or a Status for transport failures / local deadline expiry.
  /// Returns the request id (for logging/correlation).
  uint64_t Submit(ClassifyRequestMsg msg, Callback callback);

  /// Blocking wrapper around Submit.
  Result<ClassifyResponseMsg> Classify(const ClassifyRequestMsg& msg);

  NetClientStats Stats() const;
  const NetClientOptions& options() const { return options_; }

 private:
  /// One of the client's two sockets (primary / hedge).
  struct Conn {
    int fd = -1;
    bool connecting = false;  ///< non-blocking connect in flight
    FrameDecoder decoder{kDefaultMaxPayload};
    std::string outbound;
    size_t out_offset = 0;

    bool open() const { return fd >= 0; }
  };

  /// One logical request across all its attempts.
  struct Pending {
    std::string frame;  ///< encoded request frame (same id, all attempts)
    Callback callback;
    int64_t sent_us = 0;      ///< first-attempt send time (latency stat)
    int64_t deadline_us = 0;  ///< absolute (monotonic clock) budget end
    int attempt = 0;          ///< completed send attempts
    int64_t retry_at_us = 0;  ///< > 0: resend when the clock reaches this
    int64_t hedge_at_us = 0;  ///< > 0: hedge when the clock reaches this
    bool hedged = false;
  };

  /// Finished requests collected while mutex_ is held; their callbacks are
  /// invoked (and their outcome counted) after the lock is released.
  using CompletionList =
      std::vector<std::pair<Callback, Result<ClassifyResponseMsg>>>;

  void IoMain();
  /// Fires due timers (expiry, retry, hedge, reconnect); returns the poll
  /// timeout in ms until the next one.
  int64_t StepTimers(int64_t now_us, CompletionList* done);
  void StartConnect(Conn* conn);
  void FinishConnect(Conn* conn);
  void HandleReadable(Conn* conn, CompletionList* done);
  void FlushConn(Conn* conn, CompletionList* done);
  /// Tears down `conn`; if it is the primary, reroutes every in-flight
  /// request through the retry policy (resubmit or fail).
  void ConnLost(Conn* conn, const Status& reason, CompletionList* done);
  void HandleResponse(uint64_t request_id, const std::string& payload,
                      bool from_hedge, CompletionList* done);
  /// Schedules a retry for `id` or fails it when the policy says no.
  void RetryOrFail(uint64_t id, Pending* pending, const Status& reason,
                   CompletionList* done);
  void Wake();
  void CountOutcome(const Result<ClassifyResponseMsg>& result);

  NetClientOptions options_;
  Clock* clock_;
  RetryPolicy retry_;
  HedgeTracker hedge_;

  std::thread io_thread_;
  int wake_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  /// Guards pending_, the conns' outbound buffers and reconnect state.
  /// The I/O thread does all socket syscalls; Submit only appends to
  /// pending_/outbound and wakes it.
  mutable std::mutex mutex_;
  std::map<uint64_t, Pending> pending_;
  Conn primary_;
  Conn hedge_conn_;
  int64_t reconnect_at_us_ = 0;  ///< > 0: next connect attempt time
  int reconnect_attempt_ = 0;
  std::atomic<uint64_t> next_id_{1};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> transport_errors_{0};
  std::atomic<uint64_t> other_errors_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> hedges_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> timeouts_{0};
};

}  // namespace net
}  // namespace fkd

#endif  // FKD_NET_CLIENT_H_
