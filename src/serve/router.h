#ifndef FKD_SERVE_ROUTER_H_
#define FKD_SERVE_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/consistent_hash.h"
#include "common/lru_cache.h"
#include "common/status.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/model_store.h"

namespace fkd {
namespace serve {

/// Knobs of the replica health machine, the one place a sick replica is
/// detected and kept out of rotation (see Router class comment). The
/// failure ratio that quarantines, the probe text and the probe deadline
/// are fixed in router.cc.
struct QuarantineOptions {
  /// Health-evaluation and probe cadence.
  int64_t interval_ms = 200;
  /// Fewest resolutions in one interval that a replica is scored on.
  uint64_t min_samples = 8;
  /// Consecutive successful probes required to reinstate a replica.
  int probe_successes = 2;
};

/// Tuning knobs of the serving router.
struct RouterOptions {
  /// InferenceEngine replicas fronting the primary version. Requests are
  /// placed on replicas by consistent hash of the request content, so one
  /// article's repeats land on the same replica (warm batches) and
  /// resizing the fleet remaps only ~1/N of the keys.
  size_t num_replicas = 2;
  /// Replicas fronting a canary version (usually fewer than the primary).
  size_t canary_replicas = 1;
  /// Virtual nodes per replica on the placement ring.
  size_t ring_vnodes = 64;
  /// Per-engine options. `version_tag` and `completion_hook` are owned by
  /// the router and overwritten per engine.
  EngineOptions engine;
  /// Score cache entries across all shards; 0 disables the cache.
  size_t cache_capacity = 4096;
  /// Independently locked cache shards.
  size_t cache_shards = 8;
  /// Canary traffic share in permille (0..1000), decided deterministically
  /// per request key. Defaults from FKD_CANARY_PCT (a percentage, e.g.
  /// "5" or "2.5"); invalid or unset values mean 0.
  uint32_t canary_permille = CanaryPermilleFromEnvironment();
  /// Replica quarantine + self-healing (always on).
  QuarantineOptions quarantine;

  /// Parses FKD_CANARY_PCT into permille; out-of-range/garbage values are
  /// warned about and treated as unset (0).
  static uint32_t CanaryPermilleFromEnvironment();
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
  uint64_t quarantines = 0;      ///< Replicas taken out of rotation.
  uint64_t reinstatements = 0;   ///< Replicas probed healthy and restored.
  uint64_t probes = 0;           ///< Health probes sent to quarantined replicas.
  uint64_t rerouted = 0;         ///< Submits re-placed off a quarantined replica.
  size_t quarantined_now = 0;    ///< Replicas currently quarantined.
  LruCacheStats cache;           ///< Score-cache accounting.
};

/// Zero-downtime serving front-end: N micro-batching InferenceEngine
/// replicas behind consistent-hash request placement, a sharded LRU score
/// cache, per-version canary traffic splitting, and RCU-style hot-swap of
/// the serving version.
///
///  - **Placement** — each request is hashed over its full content (text +
///    graph ids); the ring maps the hash to a replica. Repeats of an
///    article always hit the same replica and the same cache shard.
///  - **Score cache** — results are cached keyed by (snapshot version,
///    request content hash), filled by the engines' completion hooks.
///    A hit skips tokenisation and the GDU forward pass entirely and
///    completes on the caller's thread (`Classification::from_cache`).
///    Versioned keys are the invalidation rule: publishing a new version
///    changes every key, so stale scores are never served — old-version
///    entries simply age out of the LRU.
///  - **Hot swap** — Publish(model) builds and starts fresh replicas on
///    the new version, atomically switches new submissions over, and only
///    then drains the old replicas (queued and in-flight requests finish
///    on the version they were submitted against). After Publish returns,
///    every engine-served response carries the new version. No request is
///    ever rejected because of a swap.
///  - **Canary** — StartCanary(model) routes a deterministic
///    `canary_permille` slice of request keys (FKD_CANARY_PCT) to replicas
///    on the canary version; PromoteCanary() makes it the primary via the
///    same drain-free swap, StopCanary() abandons it.
///  - **Quarantine + self-healing** — the one replica health machine.
///    Engines fail fast and only count outcomes; a monitor thread scores
///    every replica each interval on `failed + expired` against
///    `completed + failed + expired` over that interval. A sick replica is
///    quarantined: placement walks its hash range forward to the next
///    healthy peer (all-quarantined degrades to the original placement —
///    still serving beats refusing). While quarantined, the replica
///    receives periodic probe requests instead of traffic;
///    `probe_successes` consecutive successes reinstate it and its hash
///    range snaps back. Probes go straight to the engine, so router
///    accounting (`submitted == cache_hits + primary_requests +
///    canary_requests`) is unaffected. State machine per replica:
///      healthy --(failure ratio >= 1/2 over >= min_samples)-->
///      quarantined --(probe_successes consecutive probe oks)--> healthy
///
/// Instrumentation (obs::MetricsRegistry::Default()): fkd.serve.cache_hit,
/// fkd.serve.cache_miss, fkd.serve.canary and fkd.serve.swap counters, the
/// fkd.serve.active_version gauge, and a "serve/swap" trace span around
/// every publish (FKD_ENABLE_TRACING builds).
///
/// Thread-safe: Submit may race with Publish/StartCanary/PromoteCanary —
/// that is the point.
class Router {
 public:
  explicit Router(RouterOptions options = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Brings up the primary replicas on `initial`. One Start per router.
  Status Start(std::shared_ptr<const ServingModel> initial);

  /// Classifies one article: cache lookup first, then consistent-hash
  /// placement onto a primary (or canary) replica. A cache hit runs `done`
  /// on the calling thread before Submit returns, after the router mutex
  /// is released (so `done` may re-enter Submit); a miss hands `done` to
  /// the engine, which runs it on a worker. Returns the engine error, and
  /// never runs `done`, when the chosen replica refuses (queue full /
  /// stopped) or the router is not serving.
  Status Submit(ArticleRequest request, ClassificationCallback done);

  /// Future-returning form of the above.
  Result<ClassificationFuture> Submit(ArticleRequest request);

  /// Atomically swaps the primary to `model` (see class comment). Blocks
  /// until the previous primary has drained; new submissions are served by
  /// the new version from the moment of the swap, strictly before Publish
  /// returns.
  Status Publish(std::shared_ptr<const ServingModel> model);

  /// Starts a canary on `model`. `permille_override` < 0 keeps the
  /// configured canary_permille. Replaces (and drains) a previous canary.
  Status StartCanary(std::shared_ptr<const ServingModel> model,
                     int permille_override = -1);

  /// Promotes the current canary to primary (drains the old primary).
  Status PromoteCanary();

  /// Drops and drains the canary; its traffic share returns to the primary.
  Status StopCanary();

  /// Drains and joins every replica. Idempotent; Submit afterwards fails
  /// with Unavailable.
  void Stop();

  RouterStats Stats() const;

  /// Aggregate engine queue depth across the primary and canary fleets —
  /// the admission-control signal the network front end sheds on. Reads
  /// each engine's lock-free depth counter; takes the router mutex only to
  /// pin the generation pointers. Also published as the unlabelled
  /// fkd.serve.queue_depth gauge on every call (the per-engine gauge
  /// carries the scope=engine label).
  size_t QueueDepth() const;

  /// Current primary version (0 before Start).
  uint64_t active_version() const;
  const RouterOptions& options() const { return options_; }

  /// Stable 64-bit content hash of a request (text + creator + subjects) —
  /// the placement and cache-key hash, exposed for tests.
  static uint64_t RequestKey(const ArticleRequest& request);

 private:
  /// One serving version's fleet: engines all built on the same snapshot.
  struct Generation {
    std::shared_ptr<const ServingModel> model;
    std::vector<std::unique_ptr<InferenceEngine>> engines;
    /// Per-engine quarantine flags (1 = out of rotation), index-aligned
    /// with `engines`. Guarded by the router mutex_.
    std::vector<char> quarantined;
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

  /// Builds and starts `replicas` engines on `model`.
  Result<std::shared_ptr<Generation>> BuildGeneration(
      std::shared_ptr<const ServingModel> model, size_t replicas);
  /// Stops every engine of `generation` (drains); null-safe.
  static void DrainGeneration(const std::shared_ptr<Generation>& generation);

  /// Health monitor thread: quarantine scoring + probing (see class
  /// comment).
  void MonitorMain();
  /// One monitor pass over `generation`; `history` is the monitor-local
  /// per-engine bookkeeping (previous stats snapshot, probe streak).
  struct ReplicaHealth {
    EngineStats prev;
    int probe_streak = 0;
    bool seeded = false;  ///< prev is a real baseline, not zero-init
  };
  void MonitorGeneration(
      const std::shared_ptr<Generation>& generation,
      std::unordered_map<const InferenceEngine*, ReplicaHealth>* history);

  RouterOptions options_;
  ConsistentHashRing ring_;

  // Destruction order matters: engines (inside the generations) may still
  // run completion hooks into the cache while stopping, so the cache is
  // declared first (destroyed last).
  std::unique_ptr<ScoreCache> cache_;

  /// Guards the generation pointers. Submit holds it across placement AND
  /// the engine Submit so a concurrent swap cannot stop an engine between
  /// the two (the swap's pointer switch happens under this mutex; the old
  /// generation's drain happens outside it).
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
  std::atomic<uint64_t> quarantines_{0};
  std::atomic<uint64_t> reinstatements_{0};
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> rerouted_{0};

  // Health monitor (quarantine + self-healing).
  std::thread monitor_;
  std::mutex monitor_mutex_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;

  obs::FlightRecorder* recorder_;
  obs::Counter* cache_hit_total_;
  obs::Counter* cache_miss_total_;
  obs::Counter* requests_cache_hit_;
  obs::Counter* canary_total_;
  obs::Counter* swap_total_;
  obs::Gauge* active_version_gauge_;
  obs::Gauge* queue_depth_gauge_;
  obs::Counter* quarantine_total_;
  obs::Counter* reinstate_total_;
  obs::Counter* probe_total_;
  obs::Gauge* quarantined_gauge_;
  obs::Histogram* cache_us_;
};

}  // namespace serve
}  // namespace fkd

#endif  // FKD_SERVE_ROUTER_H_
