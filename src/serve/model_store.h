#ifndef FKD_SERVE_MODEL_STORE_H_
#define FKD_SERVE_MODEL_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/snapshot.h"

namespace fkd {
namespace serve {

/// One immutable, refcounted serving version: a loaded Snapshot plus the
/// identity the router and the score cache key it by. A ServingModel is
/// only ever handed out as shared_ptr<const ServingModel>; whoever holds a
/// reference (the active router generation, in-flight batches draining on
/// a retired version, tests) keeps it alive, and the memory is released
/// the moment the last reference drops — the RCU "grace period" is the
/// refcount draining to zero.
struct ServingModel {
  /// Monotonically increasing per-store id; never reused, so a response
  /// tagged with a version can always be ordered against a publish.
  uint64_t version = 0;
  /// Snapshot directory this version was loaded from (diagnostics only).
  std::string directory;
  std::shared_ptr<const Snapshot> snapshot;
};

/// Empty: kept only because perfbench constructs the store from it.
struct ModelStoreOptions {};

/// Point-in-time accounting of a VersionedModelStore.
struct ModelStoreStats {
  uint64_t loads = 0;           ///< Successful Load() calls.
  uint64_t load_failures = 0;   ///< Load() calls rejected (corrupt, missing).
  uint64_t publishes = 0;       ///< Active-version switches.
  uint64_t retired = 0;         ///< Versions dropped from the registry.
  size_t resident = 0;          ///< Versions currently in the registry.
  uint64_t active_version = 0;  ///< 0 = nothing published yet.
  size_t retired_still_alive = 0;  ///< Retired versions pinned by refs.
  /// Sum of the registered versions' Snapshot::ResidentBytes().
  size_t resident_bytes = 0;
};

/// Registry of loaded snapshot versions with one atomically published
/// "active" version — the model side of zero-downtime hot-swap.
///
/// Lifecycle: Load() verifies and loads a snapshot directory through the
/// durable path (MANIFEST size+CRC gate, then parse) and registers it
/// under a fresh version id; Publish() atomically makes a loaded version
/// the active one; Active() hands out a refcounted pointer to the current
/// active version. Readers never block writers and vice versa beyond a
/// brief registry mutex — the swap itself is one shared_ptr assignment
/// (RCU-style): in-flight work keeps the old version alive through its
/// reference and drains at its own pace, while every Active() call after
/// Publish() returns observes the new version. Retire() drops a version
/// from the registry; its memory is freed when the last in-flight
/// reference drains (observable via Stats().retired_still_alive, which the
/// drain tests poll to prove old versions actually die).
///
/// Every registered version stays in memory; the fkd.store.resident_bytes
/// gauge mirrors Stats().resident_bytes.
///
/// Thread-safe: all methods may be called concurrently.
class VersionedModelStore {
 public:
  VersionedModelStore() = default;
  explicit VersionedModelStore(ModelStoreOptions) {}
  VersionedModelStore(const VersionedModelStore&) = delete;
  VersionedModelStore& operator=(const VersionedModelStore&) = delete;

  /// Loads (and manifest-verifies) a snapshot directory into a new
  /// version. The snapshot is NOT active until Publish(). Returns the
  /// registered refcounted version.
  Result<std::shared_ptr<const ServingModel>> Load(
      const std::string& directory);

  /// Makes `version` the active one. Fails with NotFound for ids never
  /// registered or already retired. Publishing the already-active version
  /// is a no-op (still counted). After Publish returns, every Active()
  /// call returns the new version.
  Status Publish(uint64_t version);

  /// The active version, or null before the first Publish. The returned
  /// reference keeps the version alive across any concurrent swap.
  std::shared_ptr<const ServingModel> Active() const;

  /// Drops `version` from the registry so it can drain and die. Retiring
  /// the active version is refused with FailedPrecondition — swap first.
  Status Retire(uint64_t version);

  /// Ids of registered versions, ascending.
  std::vector<uint64_t> ResidentVersions() const;

  ModelStoreStats Stats() const;

 private:
  struct Entry {
    std::shared_ptr<const ServingModel> model;
    size_t resident_bytes = 0;  ///< model->snapshot->ResidentBytes()
  };

  std::vector<Entry>::iterator FindLocked(uint64_t version);
  void PublishGaugeLocked();

  mutable std::mutex mutex_;
  uint64_t next_version_ = 1;
  /// Registered versions in load order, which is ascending version order.
  std::vector<Entry> resident_;
  size_t resident_bytes_ = 0;
  std::shared_ptr<const ServingModel> active_;
  /// Retired versions are watched (not owned): a weak_ptr expires exactly
  /// when the last in-flight reference drains, which is the observable
  /// end of the RCU grace period. Retire() first drops the watches that
  /// have expired, so the list does not grow with every swap.
  std::vector<std::weak_ptr<const ServingModel>> retired_watch_;
  uint64_t loads_ = 0;
  uint64_t load_failures_ = 0;
  uint64_t publishes_ = 0;
  uint64_t retired_ = 0;
};

}  // namespace serve
}  // namespace fkd

#endif  // FKD_SERVE_MODEL_STORE_H_
