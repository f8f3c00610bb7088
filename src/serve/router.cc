#include "serve/router.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "obs/exporter.h"
#include "obs/trace.h"

namespace fkd {
namespace serve {

namespace {

/// Seed of the canary split: `Hash64Mix(kCanarySalt, key) % 1000` spreads
/// request keys uniformly and deterministically over the permille range.
constexpr uint64_t kCanarySalt = 0xca4a12ull;

using obs::FlightEventType;

}  // namespace

uint64_t Router::RequestKey(const ArticleRequest& request) {
  uint64_t key = Hash64(request.text);
  // Graph context changes the score, so it is part of the identity: two
  // requests differing only in creator/subjects must not share a cache
  // entry. int32 -> uint64 via int64 keeps -1 distinct from every id.
  key = Hash64Mix(key,
                  static_cast<uint64_t>(
                      static_cast<int64_t>(request.creator_id)));
  for (int32_t subject : request.subject_ids) {
    key = Hash64Mix(key, static_cast<uint64_t>(static_cast<int64_t>(subject)));
  }
  return key;
}

Router::Router(RouterOptions options) : options_(std::move(options)) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ScoreCache>(options_.cache_capacity,
                                          options_.cache_shards);
  }
  recorder_ = &obs::FlightRecorder::Get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  cache_hit_total_ = registry.GetCounter("fkd.serve.cache_hit");
  cache_miss_total_ = registry.GetCounter("fkd.serve.cache_miss");
  requests_cache_hit_ =
      registry.GetCounter("fkd.serve.requests", {{"result", "cache_hit"}});
  canary_total_ = registry.GetCounter("fkd.serve.canary");
  swap_total_ = registry.GetCounter("fkd.serve.swap");
  active_version_gauge_ = registry.GetGauge("fkd.serve.active_version");
  cache_us_ = registry.GetHistogram("fkd.serve.cache_us");
}

Router::~Router() { Stop(); }

Result<std::shared_ptr<Router::Generation>> Router::BuildGeneration(
    std::shared_ptr<const ServingModel> model) {
  FKD_CHECK(model != nullptr && model->snapshot != nullptr);
  EngineOptions engine_options = options_.engine;
  engine_options.version_tag = model->version;
  if (cache_ != nullptr) {
    // The engine worker fills the score cache before fulfilling each
    // future. The version is bound per generation, so a cached score can
    // never be attributed to a later snapshot.
    const uint64_t version = model->version;
    engine_options.completion_hook =
        [this, version](const ArticleRequest& request,
                        const Classification& result) {
          cache_->Put(CacheKey{version, RequestKey(request)}, result);
        };
  }
  auto generation = std::make_shared<Generation>();
  generation->engine =
      std::make_unique<InferenceEngine>(model->snapshot, engine_options);
  FKD_RETURN_NOT_OK(generation->engine->Start());
  generation->model = std::move(model);
  return generation;
}

void Router::DrainGeneration(const std::shared_ptr<Generation>& generation) {
  if (generation != nullptr) generation->engine->Stop();
}

Status Router::Start(std::shared_ptr<const ServingModel> initial) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return Status::FailedPrecondition("router already stopped");
    if (started_) return Status::FailedPrecondition("router already started");
  }
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> generation,
                       BuildGeneration(std::move(initial)));
  // Serving entry point: bring up the periodic stats exporter when
  // FKD_STATS_INTERVAL_MS asks for one (no-op otherwise, idempotent).
  obs::StatsExporter::MaybeStartFromEnvironment();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    primary_ = std::move(generation);
    started_ = true;
    active_version_gauge_->Set(static_cast<double>(primary_->model->version));
  }
  FKD_LOG(Info) << "router started on version " << active_version();
  return Status::OK();
}

Result<ClassificationFuture> Router::Submit(ArticleRequest request) {
  ClassificationFuture future;
  FKD_RETURN_NOT_OK(Submit(std::move(request), PromiseCallback(&future)));
  return future;
}

Status Router::Submit(ArticleRequest request, ClassificationCallback done) {
  // Birth of the request context: correlation id + deadline budget travel
  // with the request through cache lookup, canary split, engine queue and
  // micro-batch into the Classification's latency breakdown.
  if (request.request_id == 0) request.request_id = NextRequestId();
  const uint64_t request_id = request.request_id;
  const uint64_t key = RequestKey(request);
  const auto submitted_at = std::chrono::steady_clock::now();
  recorder_->Record(FlightEventType::kRequestSubmit, request_id,
                    static_cast<uint64_t>(std::max<int64_t>(
                        0, request.deadline_us)));

  std::unique_lock<std::mutex> lock(mutex_);
  if (!started_ || stopped_ || primary_ == nullptr) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("router is not serving");
  }
  // Deterministic canary split on the request key: the same article always
  // lands on the same side, so A/B comparisons are apples to apples.
  Generation* target = primary_.get();
  bool is_canary = false;
  if (canary_ != nullptr && canary_permille_ > 0 &&
      Hash64Mix(kCanarySalt, key) % 1000 < canary_permille_) {
    target = canary_.get();
    is_canary = true;
  }

  // Cache lookup is scoped to the version that would serve the request, so
  // a hit can never resurrect scores from a replaced snapshot. The lookup
  // time is part of the breakdown either way: a hit's total is ~all cache,
  // a miss carries it into the engine as ArticleRequest::cache_us.
  if (cache_ != nullptr) {
    Classification cached;
    const bool hit = cache_->Get(CacheKey{target->model->version, key}, &cached);
    const double lookup_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - submitted_at)
                                 .count();
    cache_us_->Observe(lookup_us);
    if (hit) {
      submitted_.fetch_add(1, std::memory_order_relaxed);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      cache_hit_total_->Increment();
      requests_cache_hit_->Increment();
      recorder_->Record(FlightEventType::kCacheHit, request_id,
                        target->model->version);
      cached.from_cache = true;
      cached.batch_size = 0;
      cached.request_id = request_id;
      cached.queue_us = 0.0;
      cached.batch_us = 0.0;
      cached.compute_us = 0.0;
      cached.cache_us = lookup_us;
      cached.total_us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - submitted_at)
                            .count();
      lock.unlock();
      done(std::move(cached));
      return Status::OK();
    }
    cache_misses_.fetch_add(1, std::memory_order_relaxed);
    cache_miss_total_->Increment();
    recorder_->Record(FlightEventType::kCacheMiss, request_id, 0);
    request.cache_us = lookup_us;
  }

  const Status status =
      target->engine->Submit(std::move(request), std::move(done));
  if (status.ok()) {
    // Count outcomes only after the engine accepted, so
    // submitted == cache_hits + primary_requests + canary_requests holds
    // even when the engine rejects (queue full / stopped).
    submitted_.fetch_add(1, std::memory_order_relaxed);
    if (is_canary) {
      canary_requests_.fetch_add(1, std::memory_order_relaxed);
      canary_total_->Increment();
    } else {
      primary_requests_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  return status;
}

Status Router::Publish(std::shared_ptr<const ServingModel> model) {
  FKD_TRACE_SCOPE("serve/swap");
  recorder_->Record(FlightEventType::kSwapBegin, model->version, 0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("router is not serving");
    }
  }
  // Build and start the new engine while the old one keeps serving — the
  // expensive part of a swap happens entirely off the request path.
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> fresh,
                       BuildGeneration(model));
  std::shared_ptr<Generation> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      // Lost the race with Stop(); do not resurrect a stopped router.
      DrainGeneration(fresh);
      return Status::Unavailable("router stopped during publish");
    }
    old = std::move(primary_);
    primary_ = std::move(fresh);
    swaps_.fetch_add(1, std::memory_order_relaxed);
    swap_total_->Increment();
    active_version_gauge_->Set(static_cast<double>(model->version));
  }
  // RCU drain: new submissions already go to the new version (the pointer
  // switch above is the linearisation point); the old generation finishes
  // its queued and in-flight work on the old snapshot, then dies with its
  // last reference.
  DrainGeneration(old);
  recorder_->Record(FlightEventType::kSwapEnd, model->version, model->version);
  FKD_LOG(Info) << "router: hot-swapped to version " << model->version;
  return Status::OK();
}

Status Router::StartCanary(std::shared_ptr<const ServingModel> model,
                           uint32_t permille) {
  if (permille > 1000) {
    return Status::InvalidArgument("canary permille must be <= 1000");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("router is not serving");
    }
  }
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> fresh,
                       BuildGeneration(model));
  std::shared_ptr<Generation> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      DrainGeneration(fresh);
      return Status::Unavailable("router stopped during canary start");
    }
    old = std::move(canary_);
    canary_ = std::move(fresh);
    canary_permille_ = permille;
    recorder_->Record(FlightEventType::kCanaryStart, model->version,
                      canary_permille_);
    FKD_LOG(Info) << "router: canary on version " << model->version << " at "
                  << canary_permille_ << " permille";
  }
  DrainGeneration(old);
  return Status::OK();
}

Status Router::PromoteCanary() {
  FKD_TRACE_SCOPE("serve/swap");
  recorder_->Record(FlightEventType::kSwapBegin, 0, 0);
  std::shared_ptr<Generation> old;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("router is not serving");
    }
    if (canary_ == nullptr) {
      return Status::FailedPrecondition("no canary to promote");
    }
    old = std::move(primary_);
    primary_ = std::move(canary_);
    canary_.reset();
    version = primary_->model->version;
    swaps_.fetch_add(1, std::memory_order_relaxed);
    swap_total_->Increment();
    active_version_gauge_->Set(static_cast<double>(version));
    recorder_->Record(FlightEventType::kCanaryStop, version, 1);
  }
  DrainGeneration(old);
  recorder_->Record(FlightEventType::kSwapEnd, version, version);
  FKD_LOG(Info) << "router: promoted canary version " << version;
  return Status::OK();
}

Status Router::StopCanary() {
  std::shared_ptr<Generation> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (canary_ == nullptr) {
      return Status::FailedPrecondition("no canary to stop");
    }
    old = std::move(canary_);
    recorder_->Record(FlightEventType::kCanaryStop, old->model->version, 0);
  }
  DrainGeneration(old);
  FKD_LOG(Info) << "router: canary stopped";
  return Status::OK();
}

void Router::Stop() {
  std::shared_ptr<Generation> primary;
  std::shared_ptr<Generation> canary;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    primary = std::move(primary_);
    canary = std::move(canary_);
  }
  DrainGeneration(primary);
  DrainGeneration(canary);
}

uint64_t Router::active_version() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return primary_ != nullptr ? primary_->model->version : 0;
}

RouterStats Router::Stats() const {
  RouterStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  stats.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  stats.primary_requests = primary_requests_.load(std::memory_order_relaxed);
  stats.canary_requests = canary_requests_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.cache = cache_->Stats();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.active_version = primary_ != nullptr ? primary_->model->version : 0;
  stats.canary_version = canary_ != nullptr ? canary_->model->version : 0;
  return stats;
}

}  // namespace serve
}  // namespace fkd
