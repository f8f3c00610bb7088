// Golden end-to-end regression: fixed-seed synthetic PolitiFact → train →
// snapshot to disk → serve round-trip. The checked-in accuracy/F1 numbers
// are exact (not tolerances): the whole pipeline — generator, tokenizer,
// HFLU/GDU forwards, training loop, snapshot codec — is bitwise
// deterministic, so any drift in these constants is a behaviour change
// that must be reviewed, not absorbed.
//
// The parity test closes the loop on the determinism contract: scores
// served through the Router (engine micro-batching, worker threads) are
// bitwise identical to direct Snapshot::Score calls, at 1 and at 4 intra-op
// threads (ThreadPool chunk bounds are a pure function of range+grain).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/fake_detector.h"
#include "core/hflu.h"
#include "data/generator.h"
#include "data/split.h"
#include "eval/metrics.h"
#include "common/thread_pool.h"
#include "serve/model_store.h"
#include "serve/router.h"
#include "serve/snapshot.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "text/features.h"

namespace fkd {
namespace serve {
namespace {

// ---- fixed-seed pipeline ----------------------------------------------------------
//
// Every seed below is load-bearing: the golden constants are a function of
// all of them. Change any, re-bake the constants.

constexpr size_t kArticles = 120;
constexpr size_t kCreators = 90;
constexpr uint64_t kSplitSeed = 77;
constexpr uint64_t kTrainSeed = 7;
constexpr size_t kFolds = 5;

core::FakeDetectorConfig GoldenConfig() {
  core::FakeDetectorConfig config;
  config.epochs = 20;
  config.explicit_words = 60;
  config.latent_vocabulary = 200;
  config.hflu.max_sequence_length = 10;
  config.hflu.gru_hidden = 12;
  config.hflu.latent_dim = 10;
  config.hflu.embed_dim = 10;
  config.gdu_hidden = 16;
  config.verbose = false;
  return config;
}

struct GoldenFixture {
  data::Dataset dataset;
  graph::HeterogeneousGraph graph;
  core::FakeDetector detector;
  std::vector<int32_t> test_articles;
  std::string snapshot_dir;
};

const GoldenFixture& Fixture() {
  static GoldenFixture* fixture = [] {
    auto dataset = data::GeneratePolitiFact(
        data::GeneratorOptions::Scaled(kArticles, kCreators));
    FKD_CHECK_OK(dataset.status());
    auto graph = dataset.value().BuildGraph();
    FKD_CHECK_OK(graph.status());
    auto* f = new GoldenFixture{std::move(dataset).value(),
                                std::move(graph).value(),
                                core::FakeDetector(GoldenConfig()),
                                {},
                                {}};
    Rng rng(kSplitSeed);
    auto splits = data::KFoldTriSplits(f->dataset.articles.size(),
                                       f->dataset.creators.size(),
                                       f->dataset.subjects.size(), kFolds,
                                       &rng);
    FKD_CHECK_OK(splits.status());
    eval::TrainContext context;
    context.dataset = &f->dataset;
    context.graph = &f->graph;
    context.train_articles = splits.value()[0].articles.train;
    context.train_creators = splits.value()[0].creators.train;
    context.train_subjects = splits.value()[0].subjects.train;
    context.granularity = eval::LabelGranularity::kBinary;
    context.seed = kTrainSeed;
    FKD_CHECK_OK(f->detector.Train(context));
    f->test_articles = splits.value()[0].articles.test;

    f->snapshot_dir = (std::filesystem::temp_directory_path() /
                       ("fkd_golden_snapshot_" + std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(f->snapshot_dir);
    FKD_CHECK_OK(ExportSnapshot(f->detector, f->snapshot_dir));
    return f;
  }();
  return *fixture;
}

/// Builds the serving request for one test article, carrying its full graph
/// context so the e2e path exercises the creator/subject GDU ports too.
ArticleRequest RequestFor(const data::Article& article) {
  ArticleRequest request;
  request.text = article.text;
  request.creator_id = article.creator;
  request.subject_ids = article.subjects;
  return request;
}

/// Direct (non-router) scores for one article through the reloaded
/// snapshot, as class probabilities.
std::vector<float> DirectProbabilities(const Snapshot& snapshot,
                                       const data::Article& article) {
  const Tensor logits = snapshot.Score({article.text}, {article.creator},
                                       {article.subjects});
  const Tensor probabilities = SoftmaxRows(logits);
  std::vector<float> row(probabilities.cols());
  for (size_t c = 0; c < probabilities.cols(); ++c) {
    row[c] = probabilities.At(0, c);
  }
  return row;
}

/// Held-out-fold metrics served through a reloaded snapshot.
eval::BinaryMetrics MetricsThroughSnapshot(const Snapshot& snapshot) {
  const GoldenFixture& fixture = Fixture();
  eval::ConfusionMatrix matrix(snapshot.num_classes);
  for (int32_t id : fixture.test_articles) {
    const data::Article& article = fixture.dataset.articles[id];
    const Tensor logits =
        snapshot.Score({article.text}, {article.creator}, {article.subjects});
    int32_t predicted = 0;
    for (size_t c = 1; c < logits.cols(); ++c) {
      if (logits.At(0, c) > logits.At(0, predicted)) {
        predicted = static_cast<int32_t>(c);
      }
    }
    matrix.Add(eval::TargetOf(article.label, snapshot.granularity), predicted);
  }
  return eval::ComputeBinaryMetrics(matrix);
}

/// Quantized twins of the golden snapshot, exported once from the same
/// trained detector: fp16 and int8 weights, both with the LZ-compressed
/// cold tier (the production shape of a quantized artifact).
struct QuantizedTwins {
  std::string fp16_dir;
  std::string int8_dir;
};

const QuantizedTwins& Twins() {
  static QuantizedTwins* twins = [] {
    const GoldenFixture& fixture = Fixture();
    auto* t = new QuantizedTwins();
    const std::string stem =
        (std::filesystem::temp_directory_path() /
         ("fkd_golden_quant_" + std::to_string(::getpid())))
            .string();
    t->fp16_dir = stem + "_fp16";
    t->int8_dir = stem + "_int8";
    std::filesystem::remove_all(t->fp16_dir);
    std::filesystem::remove_all(t->int8_dir);
    SnapshotOptions fp16;
    fp16.weights_codec = nn::TensorCodec::kFp16;
    fp16.cold_codec = BlockCodecId::kLz;
    FKD_CHECK_OK(ExportSnapshot(fixture.detector, t->fp16_dir, fp16));
    SnapshotOptions int8;
    int8.weights_codec = nn::TensorCodec::kInt8;
    int8.cold_codec = BlockCodecId::kLz;
    FKD_CHECK_OK(ExportSnapshot(fixture.detector, t->int8_dir, int8));
    return t;
  }();
  return *twins;
}

// ---- golden metrics ---------------------------------------------------------------

// Baked from one run of this exact pipeline (seeds above). Exact equality
// on purpose — see the file comment.
constexpr double kGoldenAccuracy = 0.70833333333333337;   // 17/24
constexpr double kGoldenPrecision = 0.70588235294117652;  // 12/17
constexpr double kGoldenRecall = 0.8571428571428571;      // 12/14
constexpr double kGoldenF1 = 0.77419354838709675;         // 24/31

TEST(GoldenE2ETest, HeldOutMetricsMatchCheckedInGolden) {
  const GoldenFixture& fixture = Fixture();
  ASSERT_FALSE(fixture.test_articles.empty());

  // Serve the held-out fold through the durable path: snapshot reloaded
  // from disk (manifest-verified), not the in-memory trained model.
  auto loaded = LoadSnapshot(fixture.snapshot_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snapshot& snapshot = loaded.value();

  const eval::BinaryMetrics metrics = MetricsThroughSnapshot(snapshot);

  EXPECT_DOUBLE_EQ(metrics.accuracy, kGoldenAccuracy);
  EXPECT_DOUBLE_EQ(metrics.precision, kGoldenPrecision);
  EXPECT_DOUBLE_EQ(metrics.recall, kGoldenRecall);
  EXPECT_DOUBLE_EQ(metrics.f1, kGoldenF1);
  // The golden constants must also describe a model that actually learned
  // something, or a regression to coin-flipping could hide inside an
  // accidentally-matching constant update.
  EXPECT_GT(metrics.accuracy, 0.5);
}

// ---- bitwise parity: direct vs router, 1 vs 4 threads -----------------------------

std::vector<std::vector<float>> ScoreThroughRouter(
    const std::vector<int32_t>& article_ids, uint64_t* served_version) {
  const GoldenFixture& fixture = Fixture();
  VersionedModelStore store;
  auto model = store.Load(fixture.snapshot_dir);
  FKD_CHECK_OK(model.status());

  RouterOptions options;
  options.engine.num_workers = 1;
  options.engine.max_batch_delay_us = 0;
  Router router(options);
  FKD_CHECK_OK(router.Start(model.value()));

  std::vector<std::vector<float>> scores;
  for (int32_t id : article_ids) {
    // One request at a time: singleton batches on both paths, so padding
    // cannot differ between direct and routed scoring.
    auto submitted =
        router.Submit(RequestFor(fixture.dataset.articles[id]));
    FKD_CHECK_OK(submitted.status());
    auto result = submitted.value().get();
    FKD_CHECK_OK(result.status());
    FKD_CHECK(!result.value().from_cache) << "distinct articles cannot hit";
    scores.push_back(result.value().probabilities);
    *served_version = result.value().model_version;
  }
  router.Stop();
  return scores;
}

TEST(GoldenE2ETest, RouterScoresBitwiseMatchDirectAtOneAndFourThreads) {
  const GoldenFixture& fixture = Fixture();
  auto loaded = LoadSnapshot(fixture.snapshot_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snapshot& snapshot = loaded.value();

  const size_t sample = std::min<size_t>(fixture.test_articles.size(), 8);
  const std::vector<int32_t> ids(fixture.test_articles.begin(),
                                 fixture.test_articles.begin() + sample);

  // Reference scores on the direct path with a single-thread pool.
  ThreadPool::ResetGlobal(1);
  std::vector<std::vector<float>> direct;
  for (int32_t id : ids) {
    direct.push_back(DirectProbabilities(snapshot, fixture.dataset.articles[id]));
  }
  uint64_t version_one = 0;
  const auto routed_one = ScoreThroughRouter(ids, &version_one);

  // Same work at 4 intra-op threads: chunk bounds are thread-count
  // independent, so every float must be identical.
  ThreadPool::ResetGlobal(4);
  std::vector<std::vector<float>> direct_four;
  for (int32_t id : ids) {
    direct_four.push_back(
        DirectProbabilities(snapshot, fixture.dataset.articles[id]));
  }
  uint64_t version_four = 0;
  const auto routed_four = ScoreThroughRouter(ids, &version_four);
  ThreadPool::ResetGlobal(0);  // back to the environment's sizing

  EXPECT_EQ(version_one, 1u);
  EXPECT_EQ(version_four, 1u);
  ASSERT_EQ(routed_one.size(), ids.size());
  ASSERT_EQ(routed_four.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(direct[i].size(), snapshot.num_classes);
    ASSERT_EQ(routed_one[i].size(), snapshot.num_classes);
    for (size_t c = 0; c < snapshot.num_classes; ++c) {
      // EXPECT_EQ on floats: bitwise-or-bust, not almost-equal.
      EXPECT_EQ(routed_one[i][c], direct[i][c])
          << "router vs direct, article " << ids[i] << " class " << c;
      EXPECT_EQ(direct_four[i][c], direct[i][c])
          << "direct 4 threads vs 1 thread, article " << ids[i];
      EXPECT_EQ(routed_four[i][c], direct[i][c])
          << "router 4 threads vs direct 1 thread, article " << ids[i];
    }
  }
}

// ---- bitwise parity: fused ScoreArticles vs the tape-based Step path --------------

// ScoreArticles now runs the cache-blocked GduCell::StepInference (packed
// gate GEMM, fused bias+activation epilogues). This case pins it to the
// original serving formulation — tape-based GDU Step over the unfused
// kernels — float for float, at 1 and 4 intra-op threads.
TEST(GoldenE2ETest, ScoreArticlesBitwiseMatchesTapeBasedStepPath) {
  const GoldenFixture& fixture = Fixture();
  auto loaded = LoadSnapshot(fixture.snapshot_dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Snapshot& snapshot = loaded.value();
  const core::DiffusionModel& model = *snapshot.model;

  const size_t sample = std::min<size_t>(fixture.test_articles.size(), 8);
  std::vector<std::string> texts;
  std::vector<std::vector<int32_t>> subject_groups;
  std::vector<std::vector<int32_t>> creator_groups;
  for (size_t i = 0; i < sample; ++i) {
    const data::Article& article =
        fixture.dataset.articles[fixture.test_articles[i]];
    texts.push_back(article.text);
    subject_groups.push_back(article.subjects);
    creator_groups.push_back(article.creator >= 0
                                 ? std::vector<int32_t>{article.creator}
                                 : std::vector<int32_t>{});
  }
  const auto documents = text::TokenizeDocuments(texts);
  const core::HfluInput input = model.article_hflu().PrepareBatch(documents);

  namespace ag = ::fkd::autograd;
  for (const size_t threads : {1u, 4u}) {
    ThreadPool::ResetGlobal(threads);
    const Tensor fused =
        model.ScoreArticles(input, subject_groups, creator_groups,
                            snapshot.creator_states, snapshot.subject_states);

    ag::InferenceModeGuard no_grad;
    const ag::Variable xa = model.article_hflu().Forward(input);
    const ag::Variable za = ag::GroupMeanRows(
        ag::Variable(snapshot.subject_states, false, "hs"), subject_groups);
    const ag::Variable ta = ag::GroupMeanRows(
        ag::Variable(snapshot.creator_states, false, "hu"), creator_groups);
    const ag::Variable ha = model.article_gdu().Step(xa, za, ta);
    const Tensor seed_path = model.article_head().Forward(ha).value();

    EXPECT_TRUE(fused == seed_path)
        << "fused ScoreArticles diverged from the tape-based Step path at "
        << threads << " thread(s)";
  }
  ThreadPool::ResetGlobal(0);
}

// ---- quantized twins: accuracy lock + determinism ---------------------------------

// The accuracy gate of the quantization harness: the same trained model,
// exported at fp16 and int8, served end to end from disk. fp16 perturbs
// this model too little to move a single argmax on the held-out fold, so
// its metrics are locked to the fp32 golden constants EXACTLY; int8 is
// held to a small delta gate on accuracy and F1.
TEST(GoldenE2ETest, QuantizedTwinsHoldTheAccuracyGate) {
  const QuantizedTwins& twins = Twins();

  auto fp16 = LoadSnapshot(twins.fp16_dir);
  ASSERT_TRUE(fp16.ok()) << fp16.status().ToString();
  const eval::BinaryMetrics fp16_metrics = MetricsThroughSnapshot(fp16.value());
  EXPECT_DOUBLE_EQ(fp16_metrics.accuracy, kGoldenAccuracy);
  EXPECT_DOUBLE_EQ(fp16_metrics.precision, kGoldenPrecision);
  EXPECT_DOUBLE_EQ(fp16_metrics.recall, kGoldenRecall);
  EXPECT_DOUBLE_EQ(fp16_metrics.f1, kGoldenF1);

  auto int8 = LoadSnapshot(twins.int8_dir);
  ASSERT_TRUE(int8.ok()) << int8.status().ToString();
  const eval::BinaryMetrics int8_metrics = MetricsThroughSnapshot(int8.value());
  EXPECT_NEAR(int8_metrics.accuracy, kGoldenAccuracy, 0.05);
  EXPECT_NEAR(int8_metrics.f1, kGoldenF1, 0.05);
  // A quantized model must still clearly beat coin-flipping.
  EXPECT_GT(int8_metrics.accuracy, 0.6);
}

// Dequantisation is one deterministic element-wise path, so a quantized
// snapshot served at 1 and at 4 intra-op threads — and across independent
// loads — produces bitwise identical probabilities.
TEST(GoldenE2ETest, QuantizedServingIsBitwiseReproducible) {
  const GoldenFixture& fixture = Fixture();
  const QuantizedTwins& twins = Twins();
  for (const std::string& dir : {twins.fp16_dir, twins.int8_dir}) {
    auto first = LoadSnapshot(dir);
    auto second = LoadSnapshot(dir);
    ASSERT_TRUE(first.ok() && second.ok());

    const size_t sample = std::min<size_t>(fixture.test_articles.size(), 6);
    for (size_t i = 0; i < sample; ++i) {
      const data::Article& article =
          fixture.dataset.articles[fixture.test_articles[i]];
      ThreadPool::ResetGlobal(1);
      const std::vector<float> one =
          DirectProbabilities(first.value(), article);
      ThreadPool::ResetGlobal(4);
      const std::vector<float> four =
          DirectProbabilities(first.value(), article);
      const std::vector<float> reloaded =
          DirectProbabilities(second.value(), article);
      ThreadPool::ResetGlobal(0);
      ASSERT_EQ(one.size(), four.size());
      for (size_t c = 0; c < one.size(); ++c) {
        EXPECT_EQ(one[c], four[c]) << dir << " thread-count drift, class " << c;
        EXPECT_EQ(one[c], reloaded[c]) << dir << " reload drift, class " << c;
      }
    }
  }
}

// ---- storage gate -----------------------------------------------------------------

uintmax_t DirectoryBytes(const std::string& directory) {
  uintmax_t total = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(directory)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Size regression gate (also registered as the `storage_gate` ctest): the
// quantized artifacts must deliver their bytes. The weights container —
// what quantization actually targets — is held to the hard int8 ≤ 30% /
// fp16 ≤ 55% ratios. Whole-directory totals (config, labels, manifest,
// compressed cold tier) get two points of slack: the golden model is tiny,
// so the fixed per-snapshot metadata footprint is proportionally large,
// and on production-sized models the directory ratio converges to the
// weights ratio.
TEST(StorageGateTest, QuantizedSnapshotsShrinkAsAdvertised) {
  const GoldenFixture& fixture = Fixture();
  const QuantizedTwins& twins = Twins();

  const uintmax_t fp32_weights =
      std::filesystem::file_size(fixture.snapshot_dir + "/weights.fkdw");
  const uintmax_t fp16_weights =
      std::filesystem::file_size(twins.fp16_dir + "/weights.fkdw");
  const uintmax_t int8_weights =
      std::filesystem::file_size(twins.int8_dir + "/weights.fkdw");
  ASSERT_GT(fp32_weights, 0u);
  EXPECT_LE(fp16_weights, fp32_weights * 55 / 100)
      << "fp16 weights are " << fp16_weights << " of " << fp32_weights
      << " fp32 bytes";
  EXPECT_LE(int8_weights, fp32_weights * 30 / 100)
      << "int8 weights are " << int8_weights << " of " << fp32_weights
      << " fp32 bytes";

  const uintmax_t fp32_bytes = DirectoryBytes(fixture.snapshot_dir);
  const uintmax_t fp16_bytes = DirectoryBytes(twins.fp16_dir);
  const uintmax_t int8_bytes = DirectoryBytes(twins.int8_dir);
  EXPECT_LE(fp16_bytes, fp32_bytes * 57 / 100)
      << "fp16 snapshot is " << fp16_bytes << " of " << fp32_bytes
      << " fp32 bytes";
  EXPECT_LE(int8_bytes, fp32_bytes * 32 / 100)
      << "int8 snapshot is " << int8_bytes << " of " << fp32_bytes
      << " fp32 bytes";
}

}  // namespace
}  // namespace serve
}  // namespace fkd
