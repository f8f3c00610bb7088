#ifndef FKD_SERVE_ENGINE_H_
#define FKD_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/snapshot.h"

namespace fkd {
namespace serve {

/// One incoming article to classify. `creator_id` / `subject_ids` optionally
/// anchor the article in the training graph (ids into the snapshot's frozen
/// state matrices); leaving them unset serves the article text-only with
/// the paper's all-zero missing GDU ports.
struct ArticleRequest {
  std::string text;
  int32_t creator_id = -1;
  std::vector<int32_t> subject_ids;
  /// Per-request deadline in microseconds from Submit(); the request fails
  /// with DeadlineExceeded instead of blocking forever once it lapses.
  /// 0 falls back to EngineOptions::default_deadline_us.
  int64_t deadline_us = 0;

  // --- request context (observability) ---------------------------------
  /// Correlation id carried through cache lookup, queue, batch and trace
  /// spans into Classification::request_id. The Router stamps it at
  /// Submit; the engine assigns one (NextRequestId) if it is still 0.
  uint64_t request_id = 0;
  /// Microseconds the Router spent on its cache lookup before routing here
  /// (0 for direct engine submissions); copied into the breakdown.
  double cache_us = 0.0;
};

/// Process-unique request id (monotone, never 0). Routers and engines use
/// this one sequence so ids stay unique across replicas and generations.
uint64_t NextRequestId();

/// A fulfilled classification.
struct Classification {
  int32_t class_id = -1;
  std::string class_name;
  /// Softmax probabilities, one per class id.
  std::vector<float> probabilities;
  /// Size of the micro-batch this request rode in.
  size_t batch_size = 0;
  /// Correlation id (see ArticleRequest::request_id); never 0 for an
  /// engine-served or cache-served response.
  uint64_t request_id = 0;
  /// Per-stage latency breakdown, all in microseconds. For an engine-served
  /// request: queue_us (submit -> dequeued by a worker) + batch_us
  /// (dequeue -> forward start: straggler wait bookkeeping, deadline
  /// checks) + compute_us (batched forward + softmax) plus
  /// fulfilment overhead add up to total_us - cache_us. A cache hit has
  /// only cache_us ~= total_us and zero engine stages.
  double queue_us = 0.0;
  double batch_us = 0.0;
  double compute_us = 0.0;
  double cache_us = 0.0;
  /// End-to-end microseconds from Submit() to fulfilment.
  double total_us = 0.0;
  /// Snapshot version that produced the scores
  /// (EngineOptions::version_tag; 0 when serving outside a Router).
  uint64_t model_version = 0;
  /// True when a Router fulfilled this from its score cache without any
  /// engine forward pass.
  bool from_cache = false;
};

using ClassificationFuture = std::future<Result<Classification>>;

/// Completion callback of a request accepted by Submit: runs exactly once
/// with the request's outcome, on whichever thread resolved it, and never
/// while an engine or router mutex is held. It must not block.
using ClassificationCallback = std::function<void(Result<Classification>)>;

/// A callback that fulfils `*future` — how the future-returning Submit
/// overloads wrap the callback path.
ClassificationCallback PromiseCallback(ClassificationFuture* future);

/// Tuning knobs of the serving engine.
struct EngineOptions {
  /// Fixed worker thread-pool size.
  size_t num_workers = 2;
  /// Upper bound on requests per forward pass.
  size_t max_batch_size = 16;
  /// How long a worker holding one request waits for more to batch with.
  int64_t max_batch_delay_us = 2000;
  /// Bounded queue: Submit() rejects with Unavailable beyond this depth.
  size_t max_queue_depth = 256;
  /// Deadline applied to requests that set none (0 = no deadline).
  int64_t default_deadline_us = 0;
  /// Stamped into every Classification::model_version this engine fulfils.
  /// A Router sets it to the snapshot version the engine serves, so callers
  /// (and the hot-swap tests) can attribute each response to a version.
  uint64_t version_tag = 0;
  /// Extra FKD_FAULTS site consulted per batch, *in addition to*
  /// the shared "serve.batch" site. A Router names each replica's site
  /// ("serve.replicaN.batch") so chaos drills can make exactly one replica
  /// sick — the quarantine path is unreachable otherwise, since shared
  /// faults sicken the whole fleet at once. Empty (default) = no extra
  /// site, zero cost.
  std::string fault_site;
  /// When runtime tracing is on (Tracer::Enable), requests whose total
  /// latency reaches this threshold are dumped as chrome-trace child spans
  /// (serve/request > queue/batch_form/compute), correlated by request_id.
  /// -1 (default) reads FKD_SLOW_TRACE_US; 0 traces every request.
  int64_t slow_trace_us = -1;
  /// Invoked on the worker thread for every successful classification,
  /// after the result is complete but before its completion callback runs
  /// (a caller that observes the result also observes the hook's effects).
  /// Must be thread-safe and must not block; the Router uses it to fill
  /// its score cache. Null disables it.
  std::function<void(const ArticleRequest&, const Classification&)>
      completion_hook;
};

/// Monotone counters describing an engine's lifetime so far.
struct EngineStats {
  uint64_t submitted = 0;  ///< Accepted into the queue.
  uint64_t completed = 0;  ///< Requests served a Classification.
  uint64_t rejected = 0;   ///< Refused at Submit (queue full / stopped).
  uint64_t expired = 0;    ///< Requests failed with DeadlineExceeded.
  uint64_t batches = 0;    ///< Batches run, failed ones included.
  uint64_t failed = 0;     ///< Requests failed by a failed batch.
  /// Accepted into the queue but failed with Unavailable because the
  /// engine stopped before a worker could serve them (never-started
  /// engine's orphaned queue). Distinct from `rejected`, which counts
  /// refusals *at* Submit that were never accepted.
  uint64_t unavailable = 0;
  size_t queue_depth = 0;  ///< Requests currently queued.
};

/// Every accepted request resolves exactly one way, so for any engine at
/// rest (no in-flight work):
///   submitted == completed + expired + failed + unavailable
/// and refusals (never accepted, callbacks never run) are disjoint:
///   refused  == rejected
/// router_test asserts these invariants under hot-swap stress.

/// Multi-threaded micro-batching inference server over a frozen Snapshot.
///
/// Callers Submit() ArticleRequests with a completion callback (or take a
/// future); a fixed pool of workers drains the bounded queue into batches
/// of up to `max_batch_size` (waiting at most `max_batch_delay_us` for
/// stragglers), runs one tape-free batched forward per batch, and calls
/// each request's callback with its class probabilities. Batch forwards execute their tensor kernels on the shared
/// process-wide intra-op pool (common/thread_pool.h, FKD_NUM_THREADS), so a
/// single batch is parallel across rows and trainer + engine never
/// oversubscribe the machine with private pools. Robustness semantics:
///
///  - backpressure: the queue is bounded; Submit() fails fast with
///    Unavailable when it is full instead of buffering without limit;
///  - deadlines: a request whose deadline lapses before its batch runs is
///    failed with DeadlineExceeded rather than served late;
///  - shutdown: Stop() drains — started workers finish every queued
///    request (batch delay waived) before joining; anything still queued
///    on a never-started engine fails with Unavailable;
///  - failures: a batch whose fault site or forward fails resolves each of
///    its requests once with that error. The engine neither retries nor
///    sheds; it reports outcomes and counts. NetClient is the one retry
///    layer, and Router quarantine is the one replica health machine.
///
/// Instrumentation (obs::MetricsRegistry::Default()): fkd.serve.requests
/// (counter, labelled result=ok|rejected|expired|failed|unavailable),
/// fkd.serve.batch_size, fkd.serve.latency_us, fkd.serve.queue_us,
/// fkd.serve.batch_form_us and fkd.serve.compute_us (HDR histograms; read
/// p50/p99/p999 via Histogram::Percentile), and
/// fkd.serve.queue_depth{scope=engine} (gauge; the Router publishes the
/// cross-replica aggregate as plain fkd.serve.queue_depth). Every request
/// also leaves lifecycle
/// events in the obs::FlightRecorder, and — with tracing runtime-enabled —
/// slow requests leave per-stage chrome-trace spans (see
/// EngineOptions::slow_trace_us).
class InferenceEngine {
 public:
  explicit InferenceEngine(std::shared_ptr<const Snapshot> snapshot,
                           EngineOptions options = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Launches the worker pool. One Start/Stop cycle per engine.
  Status Start();

  /// Graceful shutdown: refuses new submissions, drains the queue (see
  /// class comment), joins the workers. Idempotent.
  void Stop();

  /// Validates and enqueues one request. On acceptance `done` later runs
  /// exactly once, on a worker (or on the Stop() caller), with the
  /// Classification, a DeadlineExceeded error, the failed batch's error,
  /// or an Unavailable error (engine stopped before serving it). Returns
  /// an error Status, and never runs `done`, when the request is invalid
  /// (bad graph ids), the queue is full, or the engine is stopped.
  Status Submit(ArticleRequest request, ClassificationCallback done);

  /// Future-returning form of the above.
  Result<ClassificationFuture> Submit(ArticleRequest request);

  EngineStats Stats() const;
  /// Lock-free queue depth, maintained alongside every push/pop. Cheap
  /// enough for per-request admission-control reads (the network front end
  /// polls it on every classify), unlike Stats() which takes the engine
  /// mutex.
  size_t queue_depth() const {
    return depth_.load(std::memory_order_relaxed);
  }
  /// True once Stop() has begun: the engine takes no new work and is being
  /// replaced or shut down, not sick.
  bool draining() const;
  const EngineOptions& options() const { return options_; }
  const Snapshot& snapshot() const { return *snapshot_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    ArticleRequest request;
    ClassificationCallback done;
    Clock::time_point submitted_at;
    Clock::time_point dequeued_at;  ///< When a worker took it off the queue.
    Clock::time_point deadline;  ///< time_point::max() = none.
  };

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending> batch);
  /// Fails every request in `live` whose deadline is before `now` and
  /// removes it.
  void FailExpired(std::vector<Pending>* live, Clock::time_point now);
  /// Emits the per-stage chrome-trace spans for one served request (only
  /// called when tracing is runtime-enabled and total_us >= threshold).
  void TraceSlowRequest(const Classification& result) const;

  std::shared_ptr<const Snapshot> snapshot_;
  EngineOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  /// Mirrors queue_.size() (updated under mutex_, read lock-free).
  std::atomic<size_t> depth_{0};
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> expired_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> unavailable_{0};

  /// Resolved slow-trace threshold (options_.slow_trace_us or env).
  int64_t slow_trace_us_ = 0;
  /// Flight recorder, resolved once in the constructor so serving is
  /// always covered by the black box.
  obs::FlightRecorder* recorder_;

  // Cached instruments (pointer-stable for the registry's lifetime).
  obs::Counter* requests_ok_;
  obs::Counter* requests_rejected_;
  obs::Counter* requests_expired_;
  obs::Counter* requests_failed_;
  obs::Counter* requests_unavailable_;
  obs::Histogram* batch_size_;
  obs::Histogram* latency_us_;
  obs::Histogram* queue_us_;
  obs::Histogram* batch_form_us_;
  obs::Histogram* compute_us_;
  obs::Gauge* queue_depth_;
};

}  // namespace serve
}  // namespace fkd

#endif  // FKD_SERVE_ENGINE_H_
