#include "net/reload_handlers.h"

#include <memory>
#include <mutex>

namespace fkd {
namespace net {

namespace {

/// Retires a version the router no longer serves. 0 (there was none) and
/// versions registered elsewhere are skipped.
Status RetireReplaced(serve::VersionedModelStore* store, uint64_t version) {
  if (version == 0) return Status::OK();
  const Status retired = store->Retire(version);
  return retired.code() == StatusCode::kNotFound ? Status::OK() : retired;
}

}  // namespace

void InstallReloadHandlers(const std::string& snapshot_dir,
                           serve::Router* router,
                           serve::VersionedModelStore* store,
                           ServerOptions* options) {
  auto mutex = std::make_shared<std::mutex>();
  options->swap_handler = [=]() -> Result<uint64_t> {
    std::lock_guard<std::mutex> lock(*mutex);
    const uint64_t replaced = router->active_version();
    FKD_ASSIGN_OR_RETURN(auto model, store->Load(snapshot_dir));
    const Status published = router->Publish(model);
    if (!published.ok()) {
      store->Retire(model->version);
      return published;
    }
    FKD_RETURN_NOT_OK(store->Publish(model->version));
    FKD_RETURN_NOT_OK(RetireReplaced(store, replaced));
    return model->version;
  };
  options->canary_handler = [=](uint32_t permille) -> Result<uint64_t> {
    std::lock_guard<std::mutex> lock(*mutex);
    const uint64_t replaced = router->Stats().canary_version;
    uint64_t version = 0;
    if (permille == 0) {
      // Idempotent: "canary share 0" with no canary running is a no-op.
      const Status stopped = router->StopCanary();
      if (!stopped.ok() && stopped.code() != StatusCode::kFailedPrecondition) {
        return stopped;
      }
    } else {
      FKD_ASSIGN_OR_RETURN(auto model, store->Load(snapshot_dir));
      const Status started = router->StartCanary(model, permille);
      if (!started.ok()) {
        store->Retire(model->version);
        return started;
      }
      version = model->version;
    }
    FKD_RETURN_NOT_OK(RetireReplaced(store, replaced));
    return version;
  };
}

}  // namespace net
}  // namespace fkd
