#ifndef FKD_SERVE_ROUTER_H_
#define FKD_SERVE_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/hash.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/model_store.h"

namespace fkd {
namespace serve {

/// Tuning knobs of the serving router.
struct RouterOptions {
  /// Options of each version's engine. `version_tag` and `completion_hook`
  /// are owned by the router and overwritten per engine.
  EngineOptions engine;
  /// Score cache entries across all shards; 0 disables the cache.
  size_t cache_capacity = 4096;
  /// Independently locked cache shards.
  size_t cache_shards = 8;
};

/// Monotone counters describing a router's lifetime so far. Accounting
/// invariant (asserted under hot-swap stress in router_test): every call
/// to Submit() resolves exactly one way, so
///   submitted == cache_hits + primary_requests + canary_requests
/// and `rejected` counts the remaining calls (engine refused / router not
/// serving), disjoint from `submitted`.
struct RouterStats {
  uint64_t submitted = 0;        ///< Requests accepted by Submit().
  uint64_t rejected = 0;         ///< Submit() calls refused (not accepted).
  uint64_t cache_hits = 0;       ///< Served from the score cache.
  uint64_t cache_misses = 0;     ///< Routed to an engine.
  uint64_t primary_requests = 0; ///< Engine-accepted requests on the primary.
  uint64_t canary_requests = 0;  ///< Engine-accepted requests on the canary.
  uint64_t swaps = 0;            ///< Primary publishes (incl. promotions).
  uint64_t active_version = 0;   ///< Current primary version (0 = none).
  uint64_t canary_version = 0;   ///< Current canary version (0 = none).
  LruCacheStats cache;           ///< Score-cache accounting.
};

/// Zero-downtime serving front-end: one micro-batching InferenceEngine per
/// serving version, a sharded LRU score cache, per-version canary traffic
/// splitting, and RCU-style hot-swap of the serving version.
///
///  - **Score cache** — results are cached keyed by (snapshot version,
///    request content hash over text + graph ids), filled by the engines'
///    completion hooks. A hit skips tokenisation and the GDU forward pass
///    entirely and completes on the caller's thread
///    (`Classification::from_cache`). Versioned keys are the invalidation
///    rule: publishing a new version changes every key, so stale scores
///    are never served — old-version entries simply age out of the LRU.
///  - **Hot swap** — Publish(model) builds and starts a fresh engine on the
///    new version, atomically switches new submissions over, and only then
///    drains the old engine (queued and in-flight requests finish on the
///    version they were submitted against). After Publish returns, every
///    engine-served response carries the new version. No request is ever
///    rejected because of a swap.
///  - **Canary** — StartCanary(model, permille) routes a deterministic
///    slice of request keys to an engine on the canary version;
///    PromoteCanary() makes it the primary via the same drain-free swap,
///    StopCanary() abandons it.
///
/// A failed batch fails each of its requests once (the engine fails fast)
/// and NetClient retries them; with one engine per version, a retry
/// reaches the same engine by construction.
///
/// Instrumentation (obs::MetricsRegistry::Default()): fkd.serve.cache_hit,
/// fkd.serve.cache_miss, fkd.serve.canary and fkd.serve.swap counters, the
/// fkd.serve.active_version gauge and a "serve/swap" trace span around
/// every publish (FKD_ENABLE_TRACING builds). The engines keep the
/// fkd.serve.queue_depth gauge.
///
/// Thread-safe: Submit may race with Publish/StartCanary/PromoteCanary —
/// that is the point.
class Router {
 public:
  explicit Router(RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Brings up the primary engine on `initial`. One Start per router.
  Status Start(std::shared_ptr<const ServingModel> initial);

  /// Classifies one article: cache lookup first, then the primary (or
  /// canary) engine. A cache hit runs `done` on the calling thread before
  /// Submit returns, after the router mutex is released (so `done` may
  /// re-enter Submit); a miss hands `done` to the engine, which runs it on
  /// a worker. Returns the engine error, and never runs `done`, when the
  /// engine refuses (queue full / stopped) or the router is not serving.
  Status Submit(ArticleRequest request, ClassificationCallback done);

  /// Future-returning form of the above.
  Result<ClassificationFuture> Submit(ArticleRequest request);

  /// Atomically swaps the primary to `model` (see class comment). Blocks
  /// until the previous primary has drained; new submissions are served by
  /// the new version from the moment of the swap, strictly before Publish
  /// returns.
  Status Publish(std::shared_ptr<const ServingModel> model);

  /// Starts a canary on `model` that serves `permille` (0..1000) of
  /// request keys. Replaces (and drains) a previous canary.
  Status StartCanary(std::shared_ptr<const ServingModel> model,
                     uint32_t permille);

  /// Promotes the current canary to primary (drains the old primary).
  Status PromoteCanary();

  /// Drops and drains the canary; its traffic share returns to the primary.
  Status StopCanary();

  /// Drains and joins every engine. Idempotent; Submit afterwards fails
  /// with Unavailable.
  void Stop();

  RouterStats Stats() const;

  /// Current primary version (0 before Start).
  uint64_t active_version() const;
  const RouterOptions& options() const { return options_; }

  /// Stable 64-bit content hash of a request (text + creator + subjects) —
  /// the cache-key and canary-split hash, exposed for tests.
  static uint64_t RequestKey(const ArticleRequest& request);

 private:
  /// One serving version: its model and the engine serving it.
  struct Generation {
    std::shared_ptr<const ServingModel> model;
    std::unique_ptr<InferenceEngine> engine;
  };

  /// Cache key: the snapshot version scopes the content hash, so a swap
  /// implicitly invalidates every cached score.
  struct CacheKey {
    uint64_t version = 0;
    uint64_t content = 0;
    bool operator==(const CacheKey& other) const {
      return version == other.version && content == other.content;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const {
      return static_cast<size_t>(Hash64Mix(key.version, key.content));
    }
  };
  using ScoreCache = ShardedLruCache<CacheKey, Classification, CacheKeyHash>;

  /// Builds and starts the engine serving `model`.
  Result<std::shared_ptr<Generation>> BuildGeneration(
      std::shared_ptr<const ServingModel> model);
  /// Stops the engine of `generation` (drains); null-safe.
  static void DrainGeneration(const std::shared_ptr<Generation>& generation);

  RouterOptions options_;

  // Destruction order matters: engines (inside the generations) may still
  // run completion hooks into the cache while stopping, so the cache is
  // declared first (destroyed last).
  std::unique_ptr<ScoreCache> cache_;

  /// Guards the generation pointers. Submit holds it across the canary
  /// split AND the engine Submit so a concurrent swap cannot stop an
  /// engine between the two (the swap's pointer switch happens under this
  /// mutex; the old generation's drain happens outside it).
  mutable std::mutex mutex_;
  std::shared_ptr<Generation> primary_;
  std::shared_ptr<Generation> canary_;
  uint32_t canary_permille_ = 0;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> primary_requests_{0};
  std::atomic<uint64_t> canary_requests_{0};
  std::atomic<uint64_t> swaps_{0};

  obs::FlightRecorder* recorder_;
  obs::Counter* cache_hit_total_;
  obs::Counter* cache_miss_total_;
  obs::Counter* requests_cache_hit_;
  obs::Counter* canary_total_;
  obs::Counter* swap_total_;
  obs::Gauge* active_version_gauge_;
  obs::Histogram* cache_us_;
};

}  // namespace serve
}  // namespace fkd

#endif  // FKD_SERVE_ROUTER_H_
