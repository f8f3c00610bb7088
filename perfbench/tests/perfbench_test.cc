// Self-tests of the serving benchmark: span self time, the two budget
// closure checks, the answer check (against a real in-process router, and
// with a perturbed reference that must be caught), and input determinism.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>

#include "checks.h"
#include "inputs.h"
#include "layers.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "wire.h"

namespace perfbench {
namespace {

TEST(SpanLogTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  const int32_t root = log.Add("parent", 0, 100'000, -1, 1);
  log.Add("a", 10'000, 30'000, root, 1);
  log.Add("b", 20'000, 40'000, root, 1);   // overlaps a: counted once
  log.Add("c", 90'000, 120'000, root, 1);  // clipped to the parent's end
  const auto self = SelfTimes(log);
  EXPECT_DOUBLE_EQ(self.at("parent").total_us, 60.0);
  EXPECT_DOUBLE_EQ(self.at("a").total_us, 20.0);
  EXPECT_EQ(self.at("parent").count, 1u);
}

TEST(SpanLogTest, AppendRebasesParentIndices) {
  SpanLog a;
  a.Add("x", 0, 10, -1, 1);
  SpanLog b;
  const int32_t root = b.Add("y", 0, 10, -1, 2);
  b.Add("z", 0, 5, root, 2);
  a.Append(std::move(b));
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.spans()[2].parent, 1);
  EXPECT_EQ(a.spans()[1].parent, -1);
}

TEST(QuantileTest, NearestRank) {
  EXPECT_DOUBLE_EQ(Quantile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.99), 4.0);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

RequestRecord EngineServed(double rtt_us, float cache, float queue,
                           float batch, float compute, float total) {
  RequestRecord rec;
  rec.outcome = Outcome::kOk;
  rec.sent_ns = 1'000'000;
  rec.done_ns = rec.sent_ns + static_cast<int64_t>(rtt_us * 1e3);
  rec.due_ns = rec.sent_ns;
  rec.cache_us = cache;
  rec.queue_us = queue;
  rec.batch_us = batch;
  rec.compute_us = compute;
  rec.total_us = total;
  return rec;
}

TEST(WireBudgetTest, EngineServedSegmentsAndResidualSumToTheRtt) {
  // cache 2 + queue 300 + batch 5 + compute 400 = 707 us of server time;
  // the network residual is the remaining 293 us of a 1000 us round trip.
  const RequestRecord rec = EngineServed(1000.0, 2, 300, 5, 400, 705);
  EXPECT_DOUBLE_EQ(rec.ServerUs(), 707.0);
  EXPECT_DOUBLE_EQ(rec.RttUs() - rec.ServerUs(), 293.0);
  const WireBudget budget = CheckWireBudget({rec});
  EXPECT_EQ(budget.checked, 1u);
  EXPECT_EQ(budget.violations, 0u);
}

TEST(WireBudgetTest, CacheHitTotalCoversItsLookup) {
  RequestRecord rec = EngineServed(90.0, 3, 0, 0, 0, 4);
  rec.from_cache = true;
  EXPECT_DOUBLE_EQ(rec.ServerUs(), 4.0);
  EXPECT_EQ(CheckWireBudget({rec}).violations, 0u);
}

TEST(WireBudgetTest, ServerTimeBeyondTheRttIsAViolation) {
  const WireBudget budget =
      CheckWireBudget({EngineServed(500.0, 2, 300, 5, 400, 705)});
  EXPECT_EQ(budget.violations, 1u);
  EXPECT_NEAR(budget.max_violation_us, 207.0, 1e-3);
}

TEST(WireBudgetTest, SegmentsBeyondTheServerTotalAreAViolation) {
  // Stamped stages claim 50 us more than the engine's own total.
  EXPECT_EQ(CheckWireBudget({EngineServed(1000.0, 2, 350, 5, 400, 705)})
                .violations,
            1u);
}

TEST(WireBudgetTest, FailedRequestsAreNotBudgeted) {
  RequestRecord rec = EngineServed(10.0, 2, 300, 5, 400, 705);
  rec.outcome = Outcome::kShed;
  EXPECT_EQ(CheckWireBudget({rec}).checked, 0u);
}

TEST(StageBudgetTest, ReportedResidualClosesTheSum) {
  StageBudget b;
  b.prepare_us = 5;
  b.hflu_us = 50;
  b.aggregate_us = 1;
  b.gdu_us = 9;
  b.head_us = 1;
  b.score_us = 70;
  EXPECT_DOUBLE_EQ(b.StageSum() + b.ResidualUs(), b.score_us);
  EXPECT_TRUE(b.Closes(0.25));
  b.score_us = 120;  // stages explain only 55%
  EXPECT_FALSE(b.Closes(0.25));
  b.score_us = 0;
  EXPECT_FALSE(b.Closes(0.25));
}

/// One trained snapshot shared by the suites below.
class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::string(
        (std::filesystem::temp_directory_path() /
         ("perfbench_test_" + std::to_string(::getpid())))
            .string());
    std::filesystem::remove_all(*dir_);
    ASSERT_TRUE(TrainSnapshot(5, *dir_).ok());
    auto loaded = fkd::serve::LoadSnapshot(*dir_);
    ASSERT_TRUE(loaded.ok());
    snapshot_ = new fkd::serve::Snapshot(std::move(loaded.value()));
    auto source = RequestSource::Create(5, snapshot_->creator_states.rows(),
                                        snapshot_->subject_states.rows());
    ASSERT_TRUE(source.ok());
    source_ = new RequestSource(std::move(source.value()));
  }
  static void TearDownTestSuite() {
    delete source_;
    delete snapshot_;
    std::filesystem::remove_all(*dir_);
    delete dir_;
  }

  /// Records for `ids` as the serving path answers them: an in-process
  /// router (the same engines fkd_server runs) on the snapshot.
  static Records ServeThroughRouter(
      const std::vector<uint32_t>& ids) {
    fkd::serve::VersionedModelStore store{fkd::serve::ModelStoreOptions{}};
    auto model = store.Load(*dir_);
    EXPECT_TRUE(model.ok());
    fkd::serve::Router router{fkd::serve::RouterOptions{}};
    EXPECT_TRUE(router.Start(model.value()).ok());
    std::vector<fkd::serve::ClassificationFuture> futures;
    for (uint32_t id : ids) {
      const fkd::net::ClassifyRequestMsg msg = source_->Request(id);
      fkd::serve::ArticleRequest request;
      request.text = msg.text;
      request.creator_id = msg.creator_id;
      request.subject_ids = msg.subject_ids;
      auto future = router.Submit(std::move(request));
      EXPECT_TRUE(future.ok());
      futures.push_back(std::move(future.value()));
    }
    Records records;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto result = futures[i].get();
      EXPECT_TRUE(result.ok());
      RequestRecord rec;
      rec.outcome = Outcome::kOk;
      rec.text_id = ids[i];
      rec.class_id = result.value().class_id;
      rec.num_probs = static_cast<uint8_t>(result.value().probabilities.size());
      std::copy(result.value().probabilities.begin(),
                result.value().probabilities.end(), rec.probs.begin());
      records.push_back(rec);
    }
    router.Stop();
    return records;
  }

  static std::string* dir_;
  static fkd::serve::Snapshot* snapshot_;
  static RequestSource* source_;
};

std::string* SnapshotTest::dir_ = nullptr;
fkd::serve::Snapshot* SnapshotTest::snapshot_ = nullptr;
RequestSource* SnapshotTest::source_ = nullptr;

std::vector<uint32_t> MixedIds() {
  std::vector<uint32_t> ids;
  for (uint32_t k = 0; k < 40; ++k) {
    ids.push_back(k % 3 == 0 ? k : RequestSource::UniqueId(k));
  }
  return ids;
}

TEST_F(SnapshotTest, ServedAnswersMatchTheReferenceBitwise) {
  const auto records = ServeThroughRouter(MixedIds());
  const AnswerCheck check = CheckAnswers(records, *source_, *snapshot_);
  EXPECT_EQ(check.checked, records.size());
  EXPECT_EQ(check.mismatches, 0u);
}

TEST_F(SnapshotTest, PerturbedReferenceIsCaught) {
  const auto records = ServeThroughRouter(MixedIds());
  const AnswerCheck check =
      CheckAnswers(records, *source_, *snapshot_, /*perturb_ulps=*/1);
  EXPECT_EQ(check.mismatches, records.size());
}

TEST_F(SnapshotTest, WrongClassIdIsCaught) {
  auto records = ServeThroughRouter(MixedIds());
  records[7].class_id = 1 - records[7].class_id;
  EXPECT_EQ(CheckAnswers(records, *source_, *snapshot_).mismatches, 1u);
}

TEST_F(SnapshotTest, RequestsArePureFunctionsOfSeedAndId) {
  auto again = RequestSource::Create(5, snapshot_->creator_states.rows(),
                                     snapshot_->subject_states.rows());
  ASSERT_TRUE(again.ok());
  for (uint32_t id : MixedIds()) {
    EXPECT_EQ(source_->Request(id).text, again.value().Request(id).text);
    EXPECT_EQ(source_->Request(id).subject_ids,
              again.value().Request(id).subject_ids);
  }
  EXPECT_NE(source_->Request(RequestSource::UniqueId(1)).text,
            source_->Request(RequestSource::UniqueId(2)).text);
  EXPECT_TRUE(RequestSource::IsHot(kHotCorpus - 1));
  EXPECT_FALSE(RequestSource::IsHot(RequestSource::UniqueId(0)));
}

TEST_F(SnapshotTest, MeasuredStagesAccountForTheScoringCall) {
  std::vector<uint32_t> ids;
  for (uint32_t k = 0; k < 64; ++k) ids.push_back(RequestSource::UniqueId(k));
  SpanLog spans;
  auto layers = MeasureLayers(*dir_, *snapshot_, *source_, ids, 0.1, &spans);
  ASSERT_TRUE(layers.ok()) << layers.status().ToString();
  const LayerMetrics& m = layers.value();
  for (const StageBudget* b : {&m.b1, &m.bmax}) {
    EXPECT_GT(b->hflu_us, 0.0);
    EXPECT_DOUBLE_EQ(b->StageSum() + b->ResidualUs(), b->score_us);
    // Loose on purpose: separately timed calls on a shared host.
    EXPECT_TRUE(b->Closes(0.5)) << b->score_us << " vs " << b->StageSum();
  }
  EXPECT_EQ(m.tape_nodes_per_article, 0.0);  // serving runs tape-free
  EXPECT_GT(m.store_resident_bytes, 0.0);
  EXPECT_GT(m.router_hit_submit_us, 0.0);
  // Replay spans: one pipeline parent with five stage children per call.
  const auto self = SelfTimes(spans);
  EXPECT_EQ(self.at("core.pipeline").count, self.at("core.gdu").count);
}

TEST_F(SnapshotTest, CodecReplayCountsBothFrames) {
  std::vector<std::pair<fkd::net::ClassifyRequestMsg,
                        fkd::net::ClassifyResponseMsg>> pairs;
  fkd::net::ClassifyResponseMsg resp;
  resp.ok = true;
  resp.probabilities = {0.25f, 0.75f};
  pairs.emplace_back(source_->Request(3), resp);
  const CodecMetrics codec = MeasureCodec(pairs, 0.01);
  const size_t expected =
      fkd::net::EncodeFrame(fkd::net::MessageType::kClassifyRequest, 0,
                            fkd::net::EncodeClassifyRequest(pairs[0].first))
          .size() +
      fkd::net::EncodeFrame(fkd::net::MessageType::kClassifyResponse, 0,
                            fkd::net::EncodeClassifyResponse(resp))
          .size();
  EXPECT_DOUBLE_EQ(codec.bytes_per_pair, static_cast<double>(expected));
  EXPECT_GT(codec.ns_per_pair, 0.0);
}

}  // namespace
}  // namespace perfbench
