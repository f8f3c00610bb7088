#include "serve/model_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace fkd {
namespace serve {

namespace {

std::string VersionNotFound(uint64_t version) {
  return StrFormat("version %llu is not resident in the store",
                   static_cast<unsigned long long>(version));
}

}  // namespace

Result<std::shared_ptr<const ServingModel>> VersionedModelStore::Load(
    const std::string& directory) {
  // LoadSnapshot is the durable path: the MANIFEST (existence, size,
  // CRC-32C of every artifact) is verified before a byte is parsed, so a
  // torn or bit-rotted snapshot never becomes a version.
  Result<Snapshot> loaded = LoadSnapshot(directory);
  if (!loaded.ok()) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++load_failures_;
    return loaded.status();
  }
  auto model = std::make_shared<ServingModel>();
  model->directory = directory;
  model->snapshot =
      std::make_shared<const Snapshot>(std::move(loaded).value());
  const size_t bytes = model->snapshot->ResidentBytes();
  std::lock_guard<std::mutex> lock(mutex_);
  model->version = next_version_++;
  ++loads_;
  resident_.push_back(Entry{model, bytes});
  resident_bytes_ += bytes;
  PublishGaugeLocked();
  FKD_LOG(Info) << "model store: loaded version " << model->version
                << " from " << directory;
  return std::shared_ptr<const ServingModel>(std::move(model));
}

std::vector<VersionedModelStore::Entry>::iterator
VersionedModelStore::FindLocked(uint64_t version) {
  return std::find_if(resident_.begin(), resident_.end(),
                      [version](const Entry& entry) {
                        return entry.model->version == version;
                      });
}

Status VersionedModelStore::Publish(uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindLocked(version);
  if (it == resident_.end()) return Status::NotFound(VersionNotFound(version));
  active_ = it->model;
  ++publishes_;
  obs::MetricsRegistry::Default()
      .GetGauge("fkd.serve.active_version")
      ->Set(static_cast<double>(version));
  obs::FlightRecorder::Get().Record(obs::FlightEventType::kModelPublish,
                                    version, 0);
  FKD_LOG(Info) << "model store: published version " << version;
  return Status::OK();
}

std::shared_ptr<const ServingModel> VersionedModelStore::Active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_;
}

Status VersionedModelStore::Retire(uint64_t version) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = FindLocked(version);
  if (it == resident_.end()) {
    return Status::NotFound(VersionNotFound(version));
  }
  if (active_ != nullptr && active_->version == version) {
    return Status::FailedPrecondition(
        "cannot retire the active version; publish a replacement first");
  }
  std::erase_if(retired_watch_,
                [](const std::weak_ptr<const ServingModel>& watch) {
                  return watch.expired();
                });
  retired_watch_.emplace_back(it->model);
  resident_bytes_ -= it->resident_bytes;
  resident_.erase(it);
  ++retired_;
  obs::FlightRecorder::Get().Record(obs::FlightEventType::kModelRetire,
                                    version, 0);
  PublishGaugeLocked();
  FKD_LOG(Info) << "model store: retired version " << version
                << " (frees when its last reference drains)";
  return Status::OK();
}

std::vector<uint64_t> VersionedModelStore::ResidentVersions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<uint64_t> versions;
  versions.reserve(resident_.size());
  for (const Entry& entry : resident_) {
    versions.push_back(entry.model->version);
  }
  return versions;
}

ModelStoreStats VersionedModelStore::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ModelStoreStats stats;
  stats.loads = loads_;
  stats.load_failures = load_failures_;
  stats.publishes = publishes_;
  stats.retired = retired_;
  stats.resident = resident_.size();
  stats.active_version = active_ != nullptr ? active_->version : 0;
  for (const auto& watch : retired_watch_) {
    if (!watch.expired()) ++stats.retired_still_alive;
  }
  stats.resident_bytes = resident_bytes_;
  return stats;
}

void VersionedModelStore::PublishGaugeLocked() {
  obs::MetricsRegistry::Default()
      .GetGauge("fkd.store.resident_bytes")
      ->Set(static_cast<double>(resident_bytes_));
}

}  // namespace serve
}  // namespace fkd
