#ifndef FKD_NET_RELOAD_HANDLERS_H_
#define FKD_NET_RELOAD_HANDLERS_H_

#include <string>

#include "net/server.h"
#include "serve/model_store.h"
#include "serve/router.h"

namespace fkd {
namespace net {

/// Fills `options->swap_handler` and `options->canary_handler` with the
/// operational moves over one snapshot directory, keeping only serving
/// versions resident in `store`:
///  - swap: load a fresh version, publish it to the router and the store,
///    then retire the primary version it replaced;
///  - canary permille > 0: load a fresh version onto the canary (starting
///    or replacing one), then retire the canary version it replaced;
///  - canary permille 0: stop the canary (a no-op without one), then
///    retire it.
/// A retired version's memory is freed once its last in-flight batch
/// drains. Versions `store` never registered are left alone. The handlers
/// run one at a time; `router` and `store` must outlive the server.
void InstallReloadHandlers(const std::string& snapshot_dir,
                           serve::Router* router,
                           serve::VersionedModelStore* store,
                           ServerOptions* options);

}  // namespace net
}  // namespace fkd

#endif  // FKD_NET_RELOAD_HANDLERS_H_
