#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "net/wire.h"
#include "serve/snapshot.h"
#include "spans.h"

namespace perfbench {

/// In-process replay of a workload's inputs through each layer's public
/// functions, timed from outside (no instrumentation inside the library).
struct LayerMetrics {
  size_t max_batch = 0;  ///< EngineOptions::max_batch_size
  StageBudget b1;        ///< per-article stage times at batch size 1
  StageBudget bmax;      ///< ... and at max_batch
  double tape_nodes_per_article = 0;
  double pool_regions_per_batch = 0;
  double pool_tasks_per_batch = 0;
  double store_load_ms = 0;
  double store_resident_bytes = 0;
  double router_publish_ms = 0;
  double router_hit_submit_us = 0;
};

/// `ids` are the workload's own text ids, in send order. `budget_s` bounds
/// the time spent per timed stage sweep. Replay spans go to `spans`.
fkd::Result<LayerMetrics> MeasureLayers(const std::string& snapshot_dir,
                                        const fkd::serve::Snapshot& snapshot,
                                        const RequestSource& source,
                                        const std::vector<uint32_t>& ids,
                                        double budget_s, SpanLog* spans);

/// Wire codec cost and size on the workload's own request/response pairs.
struct CodecMetrics {
  double ns_per_pair = 0;     ///< encode+frame+decode, request and response
  double bytes_per_pair = 0;  ///< request frame + response frame
};
CodecMetrics MeasureCodec(
    const std::vector<std::pair<fkd::net::ClassifyRequestMsg,
                                fkd::net::ClassifyResponseMsg>>& pairs,
    double budget_s);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
