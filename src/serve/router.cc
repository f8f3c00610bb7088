#include "serve/router.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/exporter.h"
#include "obs/trace.h"

namespace fkd {
namespace serve {

namespace {

/// Salt separating the canary split from replica placement: without it the
/// canary slice would be a contiguous arc of the placement ring and starve
/// some replicas instead of sampling uniformly across them.
constexpr uint64_t kCanarySalt = 0xca4a12ull;

/// A replica whose failures reach this share of its resolutions over one
/// monitor interval is quarantined.
constexpr double kQuarantineFailureRatio = 0.5;
/// Deadline budget and text of a quarantine probe. The content is
/// irrelevant: the probe only proves the replica can complete a forward
/// pass again.
constexpr int64_t kProbeDeadlineUs = 250000;
constexpr const char* kProbeText = "router replica health probe";

using obs::FlightEventType;

}  // namespace

uint32_t RouterOptions::CanaryPermilleFromEnvironment() {
  const char* env = std::getenv("FKD_CANARY_PCT");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const double pct = std::strtod(env, &end);
  if (end == env || *end != '\0' || errno == ERANGE || pct < 0.0 ||
      pct > 100.0) {
    FKD_LOG(Warning) << "ignoring invalid FKD_CANARY_PCT=\"" << env
                     << "\" (want a percentage in [0, 100])";
    return 0;
  }
  return static_cast<uint32_t>(pct * 10.0 + 0.5);
}

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

Router::Router(RouterOptions options)
    : options_(std::move(options)), ring_(options_.ring_vnodes) {
  FKD_CHECK_GT(options_.num_replicas, 0u);
  FKD_CHECK_GT(options_.canary_replicas, 0u);
  FKD_CHECK_LE(options_.canary_permille, 1000u);
  canary_permille_ = options_.canary_permille;
  for (size_t r = 0; r < options_.num_replicas; ++r) {
    ring_.AddNode(static_cast<uint64_t>(r));
  }
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
  queue_depth_gauge_ = registry.GetGauge("fkd.serve.queue_depth");
  quarantine_total_ = registry.GetCounter("fkd.serve.quarantine");
  reinstate_total_ = registry.GetCounter("fkd.serve.reinstate");
  probe_total_ = registry.GetCounter("fkd.serve.probe");
  quarantined_gauge_ = registry.GetGauge("fkd.serve.quarantined");
  cache_us_ = registry.GetHistogram("fkd.serve.cache_us");
}

Router::~Router() { Stop(); }

Result<std::shared_ptr<Router::Generation>> Router::BuildGeneration(
    std::shared_ptr<const ServingModel> model, size_t replicas) {
  FKD_CHECK(model != nullptr && model->snapshot != nullptr);
  auto generation = std::make_shared<Generation>();
  generation->model = model;
  generation->engines.reserve(replicas);
  generation->quarantined.assign(replicas, 0);
  for (size_t r = 0; r < replicas; ++r) {
    EngineOptions engine_options = options_.engine;
    engine_options.version_tag = model->version;
    // Per-replica fault site so chaos drills can sicken exactly one
    // replica; a caller-provided site wins (it already knows its name).
    if (engine_options.fault_site.empty()) {
      engine_options.fault_site = StrFormat("serve.replica%zu.batch", r);
    }
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
    auto engine = std::make_unique<InferenceEngine>(model->snapshot,
                                                    engine_options);
    FKD_RETURN_NOT_OK(engine->Start());
    generation->engines.push_back(std::move(engine));
  }
  return generation;
}

void Router::DrainGeneration(const std::shared_ptr<Generation>& generation) {
  if (generation == nullptr) return;
  for (auto& engine : generation->engines) engine->Stop();
}

Status Router::Start(std::shared_ptr<const ServingModel> initial) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return Status::FailedPrecondition("router already stopped");
    if (started_) return Status::FailedPrecondition("router already started");
  }
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> generation,
                       BuildGeneration(std::move(initial),
                                       options_.num_replicas));
  // Serving entry point: bring up the periodic stats exporter when
  // FKD_STATS_INTERVAL_MS asks for one (no-op otherwise, idempotent).
  obs::StatsExporter::MaybeStartFromEnvironment();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    primary_ = std::move(generation);
    started_ = true;
    active_version_gauge_->Set(static_cast<double>(primary_->model->version));
  }
  monitor_ = std::thread([this] { MonitorMain(); });
  FKD_LOG(Info) << "router started: " << options_.num_replicas
                << " replicas on version " << active_version();
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

  // Consistent-hash placement across the generation's replicas. A
  // promoted canary generation may have fewer engines than ring nodes;
  // folding keeps the mapping total either way.
  const uint64_t node = ring_.Pick(key);
  size_t replica = node % target->engines.size();
  // Quarantine re-placement: a sick replica's hash range moves forward to
  // the next healthy peer (deterministic, so repeats of an article keep
  // hitting the same stand-in). With every replica quarantined the
  // original placement stands — degraded service beats refusing outright.
  if (target->quarantined[replica] != 0) {
    for (size_t step = 1; step < target->engines.size(); ++step) {
      const size_t candidate = (replica + step) % target->engines.size();
      if (target->quarantined[candidate] == 0) {
        replica = candidate;
        rerouted_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }
  }
  InferenceEngine& engine = *target->engines[replica];
  const Status status = engine.Submit(std::move(request), std::move(done));
  if (status.ok()) {
    // Count outcomes only after the engine accepted, so
    // submitted == cache_hits + primary_requests + canary_requests holds
    // even when a replica rejects (queue full / stopped).
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
  // Build and warm the new fleet while the old one keeps serving — the
  // expensive part of a swap happens entirely off the request path.
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> fresh,
                       BuildGeneration(model, options_.num_replicas));
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
                           int permille_override) {
  if (permille_override > 1000) {
    return Status::InvalidArgument("canary permille must be <= 1000");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopped_) {
      return Status::FailedPrecondition("router is not serving");
    }
  }
  FKD_ASSIGN_OR_RETURN(std::shared_ptr<Generation> fresh,
                       BuildGeneration(model, options_.canary_replicas));
  std::shared_ptr<Generation> old;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) {
      DrainGeneration(fresh);
      return Status::Unavailable("router stopped during canary start");
    }
    old = std::move(canary_);
    canary_ = std::move(fresh);
    if (permille_override >= 0) {
      canary_permille_ = static_cast<uint32_t>(permille_override);
    }
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
  // The monitor holds generation shared_ptrs across its pass, so it must
  // be gone before the engines drain away under it.
  {
    std::lock_guard<std::mutex> lock(monitor_mutex_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
  DrainGeneration(primary);
  DrainGeneration(canary);
}

// ---- quarantine + self-healing ----------------------------------------------

void Router::MonitorMain() {
  std::unordered_map<const InferenceEngine*, ReplicaHealth> history;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(monitor_mutex_);
      monitor_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.quarantine.interval_ms),
          [this] { return monitor_stop_; });
      if (monitor_stop_) return;
    }
    std::shared_ptr<Generation> primary;
    std::shared_ptr<Generation> canary;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      primary = primary_;
      canary = canary_;
    }
    const size_t queued = MonitorGeneration(primary, &history) +
                          MonitorGeneration(canary, &history);
    queue_depth_gauge_->Set(static_cast<double>(queued));
    // Drop bookkeeping for engines of drained generations: a dangling key
    // is never dereferenced, but a recycled allocation must not inherit a
    // dead replica's history.
    for (auto it = history.begin(); it != history.end();) {
      bool live = false;
      for (const auto& generation : {primary, canary}) {
        if (generation == nullptr) continue;
        for (const auto& engine : generation->engines) {
          live = live || engine.get() == it->first;
        }
      }
      it = live ? std::next(it) : history.erase(it);
    }
    size_t quarantined_now = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& generation : {primary_, canary_}) {
        if (generation == nullptr) continue;
        for (char flag : generation->quarantined) {
          quarantined_now += flag != 0 ? 1 : 0;
        }
      }
    }
    quarantined_gauge_->Set(static_cast<double>(quarantined_now));
  }
}

size_t Router::MonitorGeneration(
    const std::shared_ptr<Generation>& generation,
    std::unordered_map<const InferenceEngine*, ReplicaHealth>* history) {
  if (generation == nullptr) return 0;
  size_t queued = 0;
  for (size_t r = 0; r < generation->engines.size(); ++r) {
    InferenceEngine* engine = generation->engines[r].get();
    ReplicaHealth& health = (*history)[engine];
    const EngineStats now = engine->Stats();
    queued += now.queue_depth;
    if (engine->draining()) {
      health.prev = now;
      health.seeded = true;
      continue;  // a draining engine is being replaced, not sick
    }
    bool quarantined;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      quarantined = generation->quarantined[r] != 0;
    }
    if (!quarantined) {
      // Health scoring over the last interval's deltas. The first pass
      // only seeds the baseline: lifetime totals would blame a replica
      // for failures that predate the monitor.
      if (health.seeded) {
        const uint64_t failures = (now.failed - health.prev.failed) +
                                  (now.expired - health.prev.expired);
        const uint64_t total =
            (now.completed - health.prev.completed) + failures;
        if (total >= options_.quarantine.min_samples &&
            static_cast<double>(failures) >=
                kQuarantineFailureRatio * static_cast<double>(total)) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            generation->quarantined[r] = 1;
          }
          health.probe_streak = 0;
          quarantines_.fetch_add(1, std::memory_order_relaxed);
          quarantine_total_->Increment();
          const uint64_t permille =
              total == 0 ? 1000 : (1000 * failures) / total;
          recorder_->Record(FlightEventType::kReplicaQuarantine, r, permille);
          FKD_LOG(Warning) << "router: quarantined replica " << r
                           << " of version " << generation->model->version
                           << " (" << failures << "/" << total
                           << " failures last interval)";
        }
      }
    } else {
      // Probe the quarantined replica directly (bypassing placement and
      // the router counters); consecutive successes reinstate it.
      ArticleRequest probe;
      probe.text = kProbeText;
      probe.deadline_us = kProbeDeadlineUs;
      probes_.fetch_add(1, std::memory_order_relaxed);
      probe_total_->Increment();
      bool success = false;
      Result<ClassificationFuture> submitted = engine->Submit(std::move(probe));
      if (submitted.ok()) {
        success = submitted.value().get().ok();
      }
      recorder_->Record(FlightEventType::kReplicaProbe, r, success ? 1 : 0);
      if (success) {
        ++health.probe_streak;
        if (health.probe_streak >= options_.quarantine.probe_successes) {
          {
            std::lock_guard<std::mutex> lock(mutex_);
            generation->quarantined[r] = 0;
          }
          reinstatements_.fetch_add(1, std::memory_order_relaxed);
          reinstate_total_->Increment();
          recorder_->Record(FlightEventType::kReplicaReinstate, r,
                            static_cast<uint64_t>(health.probe_streak));
          FKD_LOG(Info) << "router: reinstated replica " << r
                        << " of version " << generation->model->version
                        << " after " << health.probe_streak
                        << " successful probes";
          health.probe_streak = 0;
        }
      } else {
        health.probe_streak = 0;
      }
    }
    health.prev = now;
    health.seeded = true;
  }
  return queued;
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
  stats.quarantines = quarantines_.load(std::memory_order_relaxed);
  stats.reinstatements = reinstatements_.load(std::memory_order_relaxed);
  stats.probes = probes_.load(std::memory_order_relaxed);
  stats.rerouted = rerouted_.load(std::memory_order_relaxed);
  if (cache_ != nullptr) stats.cache = cache_->Stats();
  std::lock_guard<std::mutex> lock(mutex_);
  stats.active_version = primary_ != nullptr ? primary_->model->version : 0;
  stats.canary_version = canary_ != nullptr ? canary_->model->version : 0;
  for (const auto& generation : {primary_, canary_}) {
    if (generation == nullptr) continue;
    for (char flag : generation->quarantined) {
      stats.quarantined_now += flag != 0 ? 1 : 0;
    }
  }
  return stats;
}

}  // namespace serve
}  // namespace fkd
