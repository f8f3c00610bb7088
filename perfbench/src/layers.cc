#include "layers.h"

#include <chrono>
#include <memory>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/engine.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "tensor/autograd.h"
#include "text/features.h"

namespace perfbench {

namespace {

namespace ag = fkd::autograd;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double UsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e3;
}

/// Repetitions of each timed operation outside the stage sweeps.
constexpr size_t kLoadReps = 5;
constexpr size_t kPublishReps = 5;
constexpr size_t kHitSubmits = 2000;
/// Articles replayed through the stages (the workload's first ones).
constexpr size_t kReplayArticles = 128;

struct Batch {
  std::vector<std::string> texts;
  std::vector<int32_t> creators;
  std::vector<std::vector<int32_t>> subjects;
  std::vector<std::vector<int32_t>> creator_groups;
};

std::vector<Batch> MakeBatches(const RequestSource& source,
                               const std::vector<uint32_t>& ids,
                               size_t batch_size) {
  std::vector<Batch> batches;
  const size_t n = std::min(ids.size(), kReplayArticles);
  for (size_t begin = 0; begin < n; begin += batch_size) {
    Batch batch;
    for (size_t i = begin; i < std::min(n, begin + batch_size); ++i) {
      fkd::net::ClassifyRequestMsg msg = source.Request(ids[i]);
      batch.texts.push_back(std::move(msg.text));
      batch.creators.push_back(msg.creator_id);
      batch.creator_groups.push_back(
          msg.creator_id >= 0 ? std::vector<int32_t>{msg.creator_id}
                              : std::vector<int32_t>{});
      batch.subjects.push_back(std::move(msg.subject_ids));
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Times the five stages of Snapshot::Score one by one (under a
/// "core.pipeline" span), then the whole call on its own, over `batches`
/// until `budget_s` is spent. Returns per-article medians.
StageBudget SweepStages(const fkd::serve::Snapshot& snapshot,
                        const std::vector<Batch>& batches, double budget_s,
                        uint64_t span_base, SpanLog* spans) {
  const fkd::core::DiffusionModel& model = *snapshot.model;
  std::vector<double> prepare, hflu, aggregate, gdu, head, score;
  const int64_t end_ns = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  uint64_t call = 0;
  for (size_t rep = 0; rep < 3 || NowNs() < end_ns; ++rep) {
    for (const Batch& batch : batches) {
      const double n = static_cast<double>(batch.texts.size());
      const uint64_t rid = span_base + call++;
      ag::InferenceModeGuard no_grad;
      const int64_t t0 = NowNs();
      const auto documents = fkd::text::TokenizeDocuments(batch.texts);
      const fkd::core::HfluInput input =
          model.article_hflu().PrepareBatch(documents);
      const int64_t t1 = NowNs();
      const ag::Variable x = model.article_hflu().Forward(input);
      const int64_t t2 = NowNs();
      const ag::Variable hu(snapshot.creator_states, false, "frozen_hu");
      const ag::Variable hs(snapshot.subject_states, false, "frozen_hs");
      const ag::Variable z = ag::GroupMeanRows(hs, batch.subjects);
      const ag::Variable t = ag::GroupMeanRows(hu, batch.creator_groups);
      const int64_t t3 = NowNs();
      const ag::Variable h(model.article_gdu().StepInference(
                               x.value(), z.value(), t.value()),
                           false, "ha");
      const int64_t t4 = NowNs();
      const fkd::Tensor logits = model.article_head().Forward(h).value();
      const int64_t t5 = NowNs();
      const fkd::Tensor whole =
          snapshot.Score(batch.texts, batch.creators, batch.subjects);
      const int64_t t6 = NowNs();
      FKD_CHECK_EQ(logits.rows(), whole.rows());

      const int32_t root = spans->Add("core.pipeline", t0, t5, -1, rid);
      spans->Add("text.prepare", t0, t1, root, rid);
      spans->Add("core.hflu", t1, t2, root, rid);
      spans->Add("core.aggregate", t2, t3, root, rid);
      spans->Add("core.gdu", t3, t4, root, rid);
      spans->Add("core.head", t4, t5, root, rid);
      spans->Add("core.score", t5, t6, -1, rid);
      prepare.push_back(static_cast<double>(t1 - t0) / 1e3 / n);
      hflu.push_back(static_cast<double>(t2 - t1) / 1e3 / n);
      aggregate.push_back(static_cast<double>(t3 - t2) / 1e3 / n);
      gdu.push_back(static_cast<double>(t4 - t3) / 1e3 / n);
      head.push_back(static_cast<double>(t5 - t4) / 1e3 / n);
      score.push_back(static_cast<double>(t6 - t5) / 1e3 / n);
    }
  }
  StageBudget b;
  b.prepare_us = Median(prepare);
  b.hflu_us = Median(hflu);
  b.aggregate_us = Median(aggregate);
  b.gdu_us = Median(gdu);
  b.head_us = Median(head);
  b.score_us = Median(score);
  return b;
}

}  // namespace

fkd::Result<LayerMetrics> MeasureLayers(const std::string& snapshot_dir,
                                        const fkd::serve::Snapshot& snapshot,
                                        const RequestSource& source,
                                        const std::vector<uint32_t>& ids,
                                        double budget_s, SpanLog* spans) {
  if (ids.empty()) return fkd::Status::InvalidArgument("no ids to replay");
  LayerMetrics m;
  m.max_batch = fkd::serve::EngineOptions{}.max_batch_size;

  // text + core: stage sweeps at batch 1 and at the engine's batch cap.
  const std::vector<Batch> singles = MakeBatches(source, ids, 1);
  const std::vector<Batch> fulls = MakeBatches(source, ids, m.max_batch);
  m.b1 = SweepStages(snapshot, singles, budget_s, 1'000'000, spans);
  m.bmax = SweepStages(snapshot, fulls, budget_s, 2'000'000, spans);

  // tensor + common.thread_pool: exact counts over one pass of full
  // batches through the serving call.
  fkd::ThreadPool& pool = fkd::ThreadPool::Global();
  const uint64_t tape0 = ag::TapeNodesCreated();
  const uint64_t regions0 = pool.regions();
  const uint64_t tasks0 = pool.tasks();
  size_t articles = 0;
  for (const Batch& batch : fulls) {
    snapshot.Score(batch.texts, batch.creators, batch.subjects);
    articles += batch.texts.size();
  }
  const auto nb = static_cast<double>(fulls.size());
  m.tape_nodes_per_article =
      static_cast<double>(ag::TapeNodesCreated() - tape0) /
      static_cast<double>(articles);
  m.pool_regions_per_batch = static_cast<double>(pool.regions() - regions0) / nb;
  m.pool_tasks_per_batch = static_cast<double>(pool.tasks() - tasks0) / nb;

  // serve.store: snapshot load through the versioned store.
  fkd::serve::VersionedModelStore store{fkd::serve::ModelStoreOptions{}};
  std::vector<double> load_ms;
  std::shared_ptr<const fkd::serve::ServingModel> first;
  for (size_t i = 0; i < kLoadReps; ++i) {
    const int64_t start = NowNs();
    auto loaded = store.Load(snapshot_dir);
    load_ms.push_back(UsSince(start) / 1e3);
    FKD_RETURN_NOT_OK(loaded.status());
    if (first == nullptr) {
      first = loaded.value();
      FKD_RETURN_NOT_OK(store.Publish(first->version));
    } else {
      FKD_RETURN_NOT_OK(store.Retire(loaded.value()->version));
    }
  }
  m.store_load_ms = Median(load_ms);
  m.store_resident_bytes = static_cast<double>(store.Stats().resident_bytes);

  // serve.router: publish (hot swap) and a cached-key submit, in process,
  // with the options fkd_server serves with.
  fkd::serve::Router router{fkd::serve::RouterOptions{}};
  FKD_RETURN_NOT_OK(router.Start(first));
  std::vector<double> publish_ms;
  for (size_t i = 0; i < kPublishReps; ++i) {
    auto next = store.Load(snapshot_dir);
    FKD_RETURN_NOT_OK(next.status());
    const int64_t start = NowNs();
    FKD_RETURN_NOT_OK(router.Publish(next.value()));
    publish_ms.push_back(UsSince(start) / 1e3);
  }
  m.router_publish_ms = Median(publish_ms);

  fkd::net::ClassifyRequestMsg msg = source.Request(ids.front());
  auto make_request = [&] {
    fkd::serve::ArticleRequest request;
    request.text = msg.text;
    request.creator_id = msg.creator_id;
    request.subject_ids = msg.subject_ids;
    return request;
  };
  {
    auto warm = router.Submit(make_request());
    FKD_RETURN_NOT_OK(warm.status());
    FKD_RETURN_NOT_OK(warm.value().get().status());
  }
  std::vector<double> hit_us;
  for (size_t i = 0; i < kHitSubmits; ++i) {
    fkd::serve::ArticleRequest request = make_request();
    const int64_t start = NowNs();
    auto future = router.Submit(std::move(request));
    FKD_RETURN_NOT_OK(future.status());
    auto result = future.value().get();
    const double us = UsSince(start);
    FKD_RETURN_NOT_OK(result.status());
    if (!result.value().from_cache) {
      return fkd::Status::Internal("cached-key submit missed the cache");
    }
    hit_us.push_back(us);
  }
  m.router_hit_submit_us = Median(hit_us);
  router.Stop();
  return m;
}

CodecMetrics MeasureCodec(
    const std::vector<std::pair<fkd::net::ClassifyRequestMsg,
                                fkd::net::ClassifyResponseMsg>>& pairs,
    double budget_s) {
  CodecMetrics m;
  if (pairs.empty()) return m;
  std::vector<double> ns_per_pair;
  double bytes = 0;
  size_t checksum = 0;
  const int64_t end_ns = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t rep = 0; rep < 3 || NowNs() < end_ns; ++rep) {
    fkd::net::FrameDecoder decoder;
    bytes = 0;
    const int64_t start = NowNs();
    for (size_t i = 0; i < pairs.size(); ++i) {
      const std::string request = fkd::net::EncodeFrame(
          fkd::net::MessageType::kClassifyRequest, i,
          fkd::net::EncodeClassifyRequest(pairs[i].first));
      const std::string response = fkd::net::EncodeFrame(
          fkd::net::MessageType::kClassifyResponse, i,
          fkd::net::EncodeClassifyResponse(pairs[i].second));
      bytes += static_cast<double>(request.size() + response.size());
      for (const std::string* frame_bytes : {&request, &response}) {
        decoder.Append(frame_bytes->data(), frame_bytes->size());
        fkd::net::Frame frame;
        bool ready = false;
        FKD_CHECK(decoder.Next(&frame, &ready).ok() && ready);
        if (frame.type == fkd::net::MessageType::kClassifyRequest) {
          checksum += fkd::net::DecodeClassifyRequest(frame.payload)
                          .value().text.size();
        } else {
          checksum += fkd::net::DecodeClassifyResponse(frame.payload)
                          .value().probabilities.size();
        }
      }
    }
    ns_per_pair.push_back(static_cast<double>(NowNs() - start) /
                          static_cast<double>(pairs.size()));
  }
  FKD_CHECK_GT(checksum, 0u);  // keeps the decode work observable
  m.ns_per_pair = Median(ns_per_pair);
  m.bytes_per_pair = bytes / static_cast<double>(pairs.size());
  return m;
}

}  // namespace perfbench
