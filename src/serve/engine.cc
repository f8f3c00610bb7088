#include "serve/engine.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace fkd {
namespace serve {

namespace {

using obs::FlightEventType;

int64_t SlowTraceUsFromEnvironment() {
  const char* env = std::getenv("FKD_SLOW_TRACE_US");
  if (env == nullptr || env[0] == '\0') return 0;
  return std::atoll(env);
}

}  // namespace

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ClassificationCallback PromiseCallback(ClassificationFuture* future) {
  auto promise = std::make_shared<std::promise<Result<Classification>>>();
  *future = promise->get_future();
  return [promise](Result<Classification> result) {
    promise->set_value(std::move(result));
  };
}

InferenceEngine::InferenceEngine(std::shared_ptr<const Snapshot> snapshot,
                                 EngineOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {
  FKD_CHECK(snapshot_ != nullptr && snapshot_->model != nullptr)
      << "InferenceEngine needs a loaded snapshot";
  FKD_CHECK_GT(options_.num_workers, 0u);
  FKD_CHECK_GT(options_.max_batch_size, 0u);
  FKD_CHECK_GT(options_.max_queue_depth, 0u);
  slow_trace_us_ = options_.slow_trace_us >= 0 ? options_.slow_trace_us
                                               : SlowTraceUsFromEnvironment();
  // Resolving the recorder here (not lazily on the hot path) also wires the
  // FaultInjector crash hook before the first batch can hit a fault site.
  recorder_ = &obs::FlightRecorder::Get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  requests_ok_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "ok"}});
  requests_rejected_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "rejected"}});
  requests_expired_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "expired"}});
  requests_failed_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "failed"}});
  requests_shed_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "shed"}});
  requests_unavailable_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "unavailable"}});
  deadline_exceeded_total_ = registry.GetCounter("fkd.serve.deadline_exceeded");
  retries_total_ = registry.GetCounter("fkd.serve.retries");
  breaker_open_total_ = registry.GetCounter("fkd.serve.breaker_open");
  batch_size_ = registry.GetHistogram("fkd.serve.batch_size");
  latency_us_ = registry.GetHistogram("fkd.serve.latency_us");
  queue_us_ = registry.GetHistogram("fkd.serve.queue_us");
  batch_form_us_ = registry.GetHistogram("fkd.serve.batch_form_us");
  compute_us_ = registry.GetHistogram("fkd.serve.compute_us");
  // Engines share one labelled gauge (last writer wins across replicas);
  // the Router owns the unlabelled aggregate identity.
  queue_depth_ =
      registry.GetGauge("fkd.serve.queue_depth", {{"scope", "engine"}});
  health_ = registry.GetGauge("fkd.serve.health");
  health_->Set(static_cast<double>(EngineHealth::kHealthy));
}

InferenceEngine::~InferenceEngine() { Stop(); }

Status InferenceEngine::Start() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_) return Status::FailedPrecondition("engine already stopped");
  if (started_) return Status::FailedPrecondition("engine already started");
  started_ = true;
  // Warm the shared intra-op pool before the first batch: engine workers
  // submit kernel chunks (Gemm, softmax, SpMM) to the same process-wide
  // pool the trainer uses, so a batch is parallel across rows even when a
  // single worker formed it.
  const size_t kernel_threads = ThreadPool::Global().num_threads();
  FKD_LOG(Info) << "inference engine starting: " << options_.num_workers
                << " workers over a " << kernel_threads
                << "-thread intra-op compute pool";
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  recorder_->Record(FlightEventType::kEngineStart, options_.num_workers,
                    options_.version_tag);
  return Status::OK();
}

void InferenceEngine::Stop() {
  std::vector<Pending> orphaned;
  size_t depth_at_stop = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
    depth_at_stop = queue_.size();
    PublishHealthLocked();
    if (!started_) {
      // Never-started engine: there is no worker to drain the queue, so
      // fail every pending request instead of leaving callers waiting.
      while (!queue_.empty()) {
        orphaned.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      depth_.store(0, std::memory_order_relaxed);
      queue_depth_->Set(0.0);
    }
  }
  queue_cv_.notify_all();
  for (auto& pending : orphaned) {
    // These were accepted (counted in submitted_), so they resolve as
    // `unavailable` — not `rejected`, which would double-count them against
    // the submitted == completed+expired+failed+unavailable invariant.
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    requests_unavailable_->Increment();
    recorder_->Record(FlightEventType::kRequestUnavailable,
                      pending.request.request_id, 0);
    pending.done(
        Status::Unavailable("engine stopped before serving this request"));
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  recorder_->Record(FlightEventType::kEngineStop, depth_at_stop,
                    options_.version_tag);
}

Result<ClassificationFuture> InferenceEngine::Submit(ArticleRequest request) {
  ClassificationFuture future;
  FKD_RETURN_NOT_OK(Submit(std::move(request), PromiseCallback(&future)));
  return future;
}

Status InferenceEngine::Submit(ArticleRequest request,
                               ClassificationCallback done) {
  FKD_RETURN_NOT_OK(
      snapshot_->ValidateIds(request.creator_id, request.subject_ids));
  if (request.request_id == 0) request.request_id = NextRequestId();
  const uint64_t request_id = request.request_id;

  Pending pending;
  pending.submitted_at = Clock::now();
  const int64_t deadline_us = request.deadline_us > 0
                                  ? request.deadline_us
                                  : options_.default_deadline_us;
  pending.deadline = deadline_us > 0
                         ? pending.submitted_at +
                               std::chrono::microseconds(deadline_us)
                         : Clock::time_point::max();
  pending.request = std::move(request);
  pending.done = std::move(done);

  size_t depth_after = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      requests_rejected_->Increment();
      recorder_->Record(FlightEventType::kEngineReject, request_id, 0);
      return Status::Unavailable("engine is stopped");
    }
    // Open breaker: shed immediately instead of queueing work that recent
    // history says will fail. Once the cool-down lapses, move to half-open
    // and let requests through as the probe.
    if (breaker_ == BreakerState::kOpen) {
      if (Clock::now() >= breaker_open_until_) {
        breaker_ = BreakerState::kHalfOpen;
        PublishHealthLocked();
      } else {
        shed_.fetch_add(1, std::memory_order_relaxed);
        requests_shed_->Increment();
        recorder_->Record(FlightEventType::kEngineShed, request_id, 0);
        return Status::Unavailable("circuit breaker open; shedding load");
      }
    }
    if (queue_.size() >= options_.max_queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      requests_rejected_->Increment();
      recorder_->Record(FlightEventType::kEngineReject, request_id,
                        queue_.size());
      return Status::Unavailable(
          StrFormat("serve queue full (depth %zu)", queue_.size()));
    }
    queue_.push_back(std::move(pending));
    depth_after = queue_.size();
    depth_.store(depth_after, std::memory_order_relaxed);
    queue_depth_->Set(static_cast<double>(depth_after));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  recorder_->Record(FlightEventType::kEngineEnqueue, request_id, depth_after);
  queue_cv_.notify_one();
  return Status::OK();
}

void InferenceEngine::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Micro-batch formation: hold the first request at most
      // max_batch_delay_us while stragglers accumulate. During shutdown the
      // delay is waived so the drain finishes promptly.
      if (queue_.size() < options_.max_batch_size && !stopping_ &&
          options_.max_batch_delay_us > 0) {
        const auto batch_deadline =
            Clock::now() + std::chrono::microseconds(options_.max_batch_delay_us);
        queue_cv_.wait_until(lock, batch_deadline, [this] {
          return stopping_ || queue_.size() >= options_.max_batch_size;
        });
      }
      const size_t take = std::min(queue_.size(), options_.max_batch_size);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      depth_.store(queue_.size(), std::memory_order_relaxed);
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    // Leftover work may remain; let a sibling (or the next loop turn) have
    // it without waiting for another Submit's notify.
    queue_cv_.notify_one();
    const Clock::time_point dequeued = Clock::now();
    for (auto& pending : batch) pending.dequeued_at = dequeued;
    ProcessBatch(std::move(batch));
  }
}

void InferenceEngine::FailExpired(std::vector<Pending>* live,
                                  Clock::time_point now) {
  std::vector<Pending> kept;
  kept.reserve(live->size());
  for (auto& pending : *live) {
    if (pending.deadline < now) {
      const double waited_us = std::chrono::duration<double, std::micro>(
                                   now - pending.submitted_at)
                                   .count();
      expired_.fetch_add(1, std::memory_order_relaxed);
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      requests_expired_->Increment();
      deadline_exceeded_total_->Increment();
      recorder_->Record(FlightEventType::kRequestDeadline,
                        pending.request.request_id,
                        static_cast<uint64_t>(waited_us));
      FKD_LOG_EVERY_N(Warning, 64)
          << "request " << pending.request.request_id << " expired after "
          << StrFormat("%.0f", waited_us)
          << " us in queue (rate-limited: 1 in 64 logged)";
      pending.done(Status::DeadlineExceeded(StrFormat(
          "request expired after %.0f us in queue", waited_us)));
    } else {
      kept.push_back(std::move(pending));
    }
  }
  *live = std::move(kept);
}

void InferenceEngine::ProcessBatch(std::vector<Pending> batch) {
  // Fail lapsed deadlines instead of serving them late.
  std::vector<Pending> live = std::move(batch);
  FailExpired(&live, Clock::now());
  if (live.empty()) return;

  std::vector<std::string> texts;
  std::vector<int32_t> creator_ids;
  std::vector<std::vector<int32_t>> subject_ids;
  texts.reserve(live.size());
  creator_ids.reserve(live.size());
  subject_ids.reserve(live.size());
  for (const auto& pending : live) {
    texts.push_back(pending.request.text);
    creator_ids.push_back(pending.request.creator_id);
    subject_ids.push_back(pending.request.subject_ids);
  }

  // Run the forward, retrying transient failures (site "serve.batch" lets
  // tests inject them deterministically) with exponential backoff. A fatal
  // error or exhausted retries fails every request in the batch.
  recorder_->Record(FlightEventType::kBatchStart, live.size(),
                    options_.version_tag);
  Tensor logits;
  Clock::time_point forward_start;
  for (size_t attempt = 0;; ++attempt) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    Status batch_status = FaultInjector::Global().Inject("serve.batch");
    if (batch_status.ok() && !options_.fault_site.empty()) {
      batch_status = FaultInjector::Global().Inject(options_.fault_site);
    }
    if (batch_status.ok()) {
      forward_start = Clock::now();
      logits = snapshot_->Score(texts, creator_ids, subject_ids);
      break;
    }
    if (batch_status.IsRetryable() && attempt < options_.max_batch_retries) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      retries_total_->Increment();
      recorder_->Record(FlightEventType::kBatchRetry, live.size(), attempt + 1);
      FKD_LOG_EVERY_N(Warning, 16)
          << "serve batch of " << live.size() << " retrying (attempt "
          << attempt + 1 << "): " << batch_status.message()
          << " (rate-limited: 1 in 16 logged)";
      if (options_.retry_backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            options_.retry_backoff_us << attempt));
      }
      // Deadlines may have lapsed during the backoff; do not retry those.
      FailExpired(&live, Clock::now());
      if (live.empty()) {
        RecordBatchOutcome(false);
        return;
      }
      continue;
    }
    FKD_LOG_EVERY_N(Warning, 16)
        << "serve batch of " << live.size() << " failed after " << attempt
        << " retries: " << batch_status.message()
        << " (rate-limited: 1 in 16 logged)";
    recorder_->Record(FlightEventType::kBatchFailed, live.size(),
                      options_.version_tag);
    // Record the outcome BEFORE running the callbacks: a caller that sees
    // its request fail must also see the breaker's updated state.
    RecordBatchOutcome(false);
    for (auto& pending : live) {
      failed_.fetch_add(1, std::memory_order_relaxed);
      requests_failed_->Increment();
      recorder_->Record(FlightEventType::kRequestFailed,
                        pending.request.request_id, 0);
      pending.done(batch_status);
    }
    return;
  }
  RecordBatchOutcome(true);

  const Tensor probabilities = SoftmaxRows(logits);
  const Clock::time_point compute_done = Clock::now();
  const double compute_us = std::chrono::duration<double, std::micro>(
                                compute_done - forward_start)
                                .count();
  batch_size_->Observe(static_cast<double>(live.size()));
  compute_us_->Observe(compute_us);
  recorder_->Record(FlightEventType::kBatchEnd, live.size(),
                    static_cast<uint64_t>(compute_us));

  obs::Tracer& tracer = obs::Tracer::Get();
  const bool trace_slow = tracer.enabled();
  for (size_t r = 0; r < live.size(); ++r) {
    Classification result;
    result.probabilities.assign(probabilities.Row(r),
                                probabilities.Row(r) + probabilities.cols());
    result.class_id = 0;
    for (size_t c = 1; c < probabilities.cols(); ++c) {
      if (probabilities.At(r, c) > probabilities.At(r, result.class_id)) {
        result.class_id = static_cast<int32_t>(c);
      }
    }
    if (static_cast<size_t>(result.class_id) < snapshot_->class_names.size()) {
      result.class_name = snapshot_->class_names[result.class_id];
    }
    result.batch_size = live.size();
    result.model_version = options_.version_tag;
    result.request_id = live[r].request.request_id;
    result.cache_us = live[r].request.cache_us;
    result.queue_us = std::chrono::duration<double, std::micro>(
                          live[r].dequeued_at - live[r].submitted_at)
                          .count();
    result.batch_us = std::chrono::duration<double, std::micro>(
                          forward_start - live[r].dequeued_at)
                          .count();
    result.compute_us = compute_us;
    result.total_us = std::chrono::duration<double, std::micro>(
                          compute_done - live[r].submitted_at)
                          .count();
    queue_us_->Observe(result.queue_us);
    batch_form_us_->Observe(result.batch_us);
    latency_us_->Observe(result.total_us);
    completed_.fetch_add(1, std::memory_order_relaxed);
    requests_ok_->Increment();
    recorder_->Record(FlightEventType::kRequestComplete, result.request_id,
                      static_cast<uint64_t>(result.total_us));
    if (trace_slow &&
        result.total_us >= static_cast<double>(slow_trace_us_)) {
      TraceSlowRequest(result);
    }
    if (options_.completion_hook) {
      options_.completion_hook(live[r].request, result);
    }
    live[r].done(std::move(result));
  }
}

void InferenceEngine::TraceSlowRequest(const Classification& result) const {
  // Reconstruct the lifecycle as chrome-trace spans from the breakdown:
  // one anchor NowMicros() read at fulfilment, stages laid out backwards
  // from it. The parent serve/request span plus one child per stage, all
  // correlated by args.request_id.
  obs::Tracer& tracer = obs::Tracer::Get();
  const int64_t done_us = tracer.NowMicros();
  const int64_t compute_start = done_us - static_cast<int64_t>(result.compute_us);
  const int64_t batch_start =
      compute_start - static_cast<int64_t>(result.batch_us);
  const int64_t queue_start = batch_start - static_cast<int64_t>(result.queue_us);
  const uint64_t thread_id = static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const auto span = [&](const char* name, int64_t start, int64_t duration,
                        int32_t depth) {
    obs::TraceEvent event;
    event.name = name;
    event.thread_id = thread_id;
    event.start_us = start;
    event.duration_us = duration;
    event.depth = depth;
    event.id = result.request_id;
    tracer.Record(event);
  };
  span("serve/request", queue_start, done_us - queue_start, 0);
  span("serve/queue", queue_start, batch_start - queue_start, 1);
  span("serve/batch_form", batch_start, compute_start - batch_start, 1);
  span("serve/compute", compute_start, done_us - compute_start, 1);
}

void InferenceEngine::RecordBatchOutcome(bool ok) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (breaker_ == BreakerState::kHalfOpen) {
    // The probe batch decides: recovery closes the breaker with a clean
    // window, another failure re-opens it for a fresh cool-down.
    if (ok) {
      breaker_ = BreakerState::kClosed;
      window_.clear();
      recorder_->Record(FlightEventType::kBreakerClose, 0, 0);
    } else {
      breaker_ = BreakerState::kOpen;
      breaker_open_until_ =
          Clock::now() + std::chrono::microseconds(options_.breaker_open_us);
      breaker_trips_.fetch_add(1, std::memory_order_relaxed);
      breaker_open_total_->Increment();
      recorder_->Record(FlightEventType::kBreakerOpen, 1, 0);
    }
    PublishHealthLocked();
    return;
  }
  if (breaker_ != BreakerState::kClosed) return;
  window_.push_back(ok);
  while (window_.size() > options_.breaker_window) window_.pop_front();
  if (window_.size() < options_.breaker_window) return;
  size_t failures = 0;
  for (bool outcome : window_) failures += outcome ? 0 : 1;
  const float failure_rate =
      static_cast<float>(failures) / static_cast<float>(window_.size());
  if (failure_rate >= options_.breaker_failure_threshold) {
    breaker_ = BreakerState::kOpen;
    breaker_open_until_ =
        Clock::now() + std::chrono::microseconds(options_.breaker_open_us);
    window_.clear();
    breaker_trips_.fetch_add(1, std::memory_order_relaxed);
    breaker_open_total_->Increment();
    recorder_->Record(FlightEventType::kBreakerOpen, failures, 0);
    FKD_LOG_EVERY_N(Warning, 8)
        << "serve circuit breaker opened (" << failures << "/"
        << options_.breaker_window << " recent batches failed); shedding for "
        << options_.breaker_open_us
        << " us (rate-limited: 1 in 8 logged)";
    PublishHealthLocked();
  }
}

EngineHealth InferenceEngine::HealthLocked() const {
  if (stopping_) return EngineHealth::kDraining;
  if (breaker_ != BreakerState::kClosed) return EngineHealth::kDegraded;
  return EngineHealth::kHealthy;
}

void InferenceEngine::PublishHealthLocked() {
  health_->Set(static_cast<double>(HealthLocked()));
}

EngineHealth InferenceEngine::Health() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return HealthLocked();
}

EngineStats InferenceEngine::Stats() const {
  EngineStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.expired = expired_.load(std::memory_order_relaxed);
  stats.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.retries = retries_.load(std::memory_order_relaxed);
  stats.failed = failed_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.unavailable = unavailable_.load(std::memory_order_relaxed);
  stats.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(mutex_);
  stats.queue_depth = queue_.size();
  return stats;
}

}  // namespace serve
}  // namespace fkd
