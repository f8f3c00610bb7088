// Crash-safety tests: simulated ENOSPC / torn writes / process kills at
// every step of snapshot export and training checkpoints, plus at-rest
// corruption of every published file. The invariants under test:
//
//  1. an interrupted export/checkpoint NEVER publishes an accepted
//     directory — readers see the previous artifact or nothing;
//  2. a corrupted published artifact fails with a clean Corruption error —
//     never a crash, never a silent load of bad data;
//  3. training resumed from a checkpoint reproduces the uninterrupted
//     run's weights bit for bit, falling back past corrupt checkpoints.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/file_io.h"
#include "common/manifest.h"
#include "core/checkpoint.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "obs/flight_recorder.h"
#include "serve/engine.h"
#include "serve/snapshot.h"

namespace fkd {
namespace {

namespace fs = std::filesystem;

class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    FKD_CHECK_OK(FaultInjector::Global().Configure(spec));
  }
  ~ScopedFaults() { FaultInjector::Global().Clear(); }
};

std::string TestDir(const std::string& stem) {
  const std::string path =
      (fs::temp_directory_path() / (stem + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(path);
  return path;
}

// ---- tiny deterministic training setup --------------------------------------

core::FakeDetectorConfig CrashConfig() {
  core::FakeDetectorConfig config;
  config.epochs = 5;
  config.explicit_words = 20;
  config.latent_vocabulary = 60;
  config.hflu.max_sequence_length = 8;
  config.hflu.gru_hidden = 6;
  config.hflu.latent_dim = 6;
  config.hflu.embed_dim = 6;
  config.gdu_hidden = 8;
  // Early stopping on: the resume path must round-trip the validation
  // bookkeeping and kept best weights too, not just the optimizer.
  config.validation_fraction = 0.25f;
  config.early_stopping_patience = 50;  // never triggers in 5 epochs
  return config;
}

struct CrashFixture {
  data::Dataset dataset;
  graph::HeterogeneousGraph graph;
  eval::TrainContext context;  // dataset/graph pointers into this struct
  std::vector<int32_t> train_articles, train_creators, train_subjects;
};

const CrashFixture& Fixture() {
  static CrashFixture* fixture = [] {
    auto dataset = data::GeneratePolitiFact(data::GeneratorOptions::Scaled(40, 36));
    FKD_CHECK_OK(dataset.status());
    auto graph = dataset.value().BuildGraph();
    FKD_CHECK_OK(graph.status());
    auto* f = new CrashFixture{std::move(dataset).value(),
                               std::move(graph).value(),
                               {},
                               {},
                               {},
                               {}};
    Rng rng(123);
    auto splits = data::KFoldTriSplits(f->dataset.articles.size(),
                                       f->dataset.creators.size(),
                                       f->dataset.subjects.size(), 4, &rng);
    FKD_CHECK_OK(splits.status());
    f->train_articles = splits.value()[0].articles.train;
    f->train_creators = splits.value()[0].creators.train;
    f->train_subjects = splits.value()[0].subjects.train;
    f->context.dataset = &f->dataset;
    f->context.graph = &f->graph;
    f->context.train_articles = f->train_articles;
    f->context.train_creators = f->train_creators;
    f->context.train_subjects = f->train_subjects;
    f->context.granularity = eval::LabelGranularity::kBinary;
    f->context.seed = 11;
    return f;
  }();
  return *fixture;
}

// Trains a fresh detector with `config`; aborts the test process on error
// (training here is setup, not the behaviour under test).
core::FakeDetector* TrainDetector(const core::FakeDetectorConfig& config) {
  auto* detector = new core::FakeDetector(config);
  FKD_CHECK_OK(detector->Train(Fixture().context));
  return detector;
}

void ExpectSameWeights(const core::FakeDetector& a,
                       const core::FakeDetector& b) {
  std::vector<nn::NamedParameter> pa, pb;
  a.model()->CollectParameters("", &pa);
  b.model()->CollectParameters("", &pb);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].name, pb[i].name);
    const Tensor& ta = pa[i].variable.value();
    const Tensor& tb = pb[i].variable.value();
    ASSERT_EQ(ta.shape(), tb.shape()) << pa[i].name;
    EXPECT_EQ(std::memcmp(ta.data(), tb.data(), ta.size() * sizeof(float)), 0)
        << "parameter " << pa[i].name << " drifted";
  }
  // The frozen diffusion states summarise the whole forward: equal states
  // are a second, independent witness of bit-identical weights.
  const Tensor& sa = a.frozen_creator_states();
  const Tensor& sb = b.frozen_creator_states();
  ASSERT_EQ(sa.shape(), sb.shape());
  EXPECT_EQ(std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(float)), 0);
}

// The one trained detector shared by the snapshot-corruption tests.
const core::FakeDetector& SnapshotDetector() {
  static core::FakeDetector* detector = TrainDetector(CrashConfig());
  return *detector;
}

// ---- snapshot export under failure ------------------------------------------

TEST(CrashSnapshotTest, FailureAtEveryWriteStepNeverPublishes) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string probe_dir = TestDir("fkd_crash_probe");

  // Count the write ops of one clean export, then replay it with an
  // injected failure at every single one of them.
  FaultInjector& injector = FaultInjector::Global();
  injector.Clear();
  ASSERT_TRUE(serve::ExportSnapshot(detector, probe_dir).ok());
  const uint64_t writes = injector.HitCount("io.write");
  const uint64_t fsyncs = injector.HitCount("io.fsync");
  ASSERT_GT(writes, 10u) << "export should write many records";
  fs::remove_all(probe_dir);

  const std::string dir = TestDir("fkd_crash_export_fail");
  for (uint64_t k = 1; k <= writes; ++k) {
    ScopedFaults faults("io.write:fail@" + std::to_string(k));
    const Status status = serve::ExportSnapshot(detector, dir);
    ASSERT_EQ(status.code(), StatusCode::kIoError) << "write " << k;
    ASSERT_FALSE(fs::exists(dir))
        << "failed export must not publish (write " << k << ")";
  }
  for (uint64_t k = 1; k <= fsyncs; ++k) {
    ScopedFaults faults("io.fsync:fail@" + std::to_string(k));
    ASSERT_FALSE(serve::ExportSnapshot(detector, dir).ok()) << "fsync " << k;
    ASSERT_FALSE(fs::exists(dir)) << "fsync " << k;
  }
  {
    ScopedFaults faults("io.rename:fail");
    ASSERT_FALSE(serve::ExportSnapshot(detector, dir).ok());
    ASSERT_FALSE(fs::exists(dir));
  }

  // Faults cleared: the same export now succeeds and loads.
  ASSERT_TRUE(serve::ExportSnapshot(detector, dir).ok());
  EXPECT_TRUE(serve::LoadSnapshot(dir).ok());
  fs::remove_all(dir);
}

TEST(CrashSnapshotTest, SimulatedKillMidExportLeavesNoSnapshot) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string dir = TestDir("fkd_crash_export_kill");

  // A representative sample of kill points: first write, somewhere in the
  // middle of the weight records, the manifest write, an fsync, and the
  // publishing rename itself. Each runs in a death-test child so the kill
  // is a real process exit, not a cooperative unwind.
  const std::vector<std::string> kill_specs = {
      "io.write:crash@1",  "io.write:crash@9", "io.write:crash@13",
      "io.fsync:crash@2",  "io.rename:crash",
  };
  for (const std::string& spec : kill_specs) {
    EXPECT_EXIT(
        {
          FKD_CHECK_OK(FaultInjector::Global().Configure(spec));
          (void)serve::ExportSnapshot(detector, dir);
          ::_exit(0);  // unreachable when the fault fires
        },
        ::testing::ExitedWithCode(kFaultCrashExitCode), "")
        << spec;
    EXPECT_FALSE(fs::exists(dir)) << "kill at " << spec << " published";
    auto loaded = serve::LoadSnapshot(dir);
    EXPECT_FALSE(loaded.ok()) << spec;
  }
  fs::remove_all(dir + ".tmp-" + std::to_string(::getpid()));
}

// ---- published snapshot corrupted at rest -----------------------------------

// Byte-flips, truncates and deletes every manifest-listed file (plus the
// manifest itself) of a published snapshot; every mutation must surface as
// a clean Corruption, and restoring the bytes must make the snapshot whole
// again. Shared by the fp32 and the quantized/compressed sweeps.
void SweepByteFlipTruncateDelete(const std::string& dir) {
  auto entries = ReadManifest(dir);
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> files;
  for (const auto& entry : entries.value()) files.push_back(entry.file);
  files.push_back(kManifestFileName);  // the manifest itself is a target too
  ASSERT_GE(files.size(), 11u);

  for (const std::string& file : files) {
    const std::string path = dir + "/" + file;
    auto original = ReadFileToString(path);
    ASSERT_TRUE(original.ok()) << file;
    const std::string& bytes = original.value();
    ASSERT_FALSE(bytes.empty()) << file;

    // Byte flip in the middle (size unchanged: only the CRC can notice).
    {
      std::string flipped = bytes;
      flipped[flipped.size() / 2] ^= 0x20;
      ASSERT_TRUE(WriteStringToFile(path, flipped).ok());
      auto loaded = serve::LoadSnapshot(dir);
      ASSERT_FALSE(loaded.ok()) << "byte flip in " << file << " loaded";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << file;
    }
    // Truncation to half.
    {
      ASSERT_TRUE(WriteStringToFile(path, bytes.substr(0, bytes.size() / 2)).ok());
      auto loaded = serve::LoadSnapshot(dir);
      ASSERT_FALSE(loaded.ok()) << "truncated " << file << " loaded";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << file;
    }
    // Deletion.
    {
      fs::remove(path);
      auto loaded = serve::LoadSnapshot(dir);
      ASSERT_FALSE(loaded.ok()) << "deleted " << file << " loaded";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption) << file;
    }
    // Restore and confirm the snapshot is whole again.
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  }
  EXPECT_TRUE(serve::LoadSnapshot(dir).ok());
}

TEST(CrashSnapshotTest, ByteFlipTruncateDeleteEveryFileFailsCleanly) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string dir = TestDir("fkd_crash_corrupt");
  ASSERT_TRUE(serve::ExportSnapshot(detector, dir).ok());
  ASSERT_TRUE(serve::LoadSnapshot(dir).ok());
  SweepByteFlipTruncateDelete(dir);
  fs::remove_all(dir);
}

// Same sweep over the production shape of a quantized artifact: int8
// weights in the v2 container, LZ-compressed cold tier. Quantized records
// and compressed blocks must be exactly as loudly protected as fp32 ones —
// by the manifest CRC from the outside and the per-block CRC within.
TEST(CrashSnapshotTest, QuantizedCompressedCorruptionFailsCleanly) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string dir = TestDir("fkd_crash_corrupt_quant");
  serve::SnapshotOptions options;
  options.weights_codec = nn::TensorCodec::kInt8;
  options.cold_codec = BlockCodecId::kLz;
  ASSERT_TRUE(serve::ExportSnapshot(detector, dir, options).ok());
  ASSERT_TRUE(serve::LoadSnapshot(dir).ok());
  // The sweep must actually visit the new artifact kinds.
  ASSERT_TRUE(fs::exists(dir + "/states.fkdw.fkdz"));
  ASSERT_TRUE(fs::exists(dir + "/article_words.tsv.fkdz"));
  SweepByteFlipTruncateDelete(dir);
  fs::remove_all(dir);
}

TEST(CrashSnapshotTest, DuplicateConfigKeyNamedInError) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string dir = TestDir("fkd_crash_dup_key");
  ASSERT_TRUE(serve::ExportSnapshot(detector, dir).ok());

  // Append a second opinion about gdu_hidden, then re-bless the manifest so
  // only the duplicate-key check (not the CRC gate) can reject the load.
  auto config = ReadFileToString(dir + "/config.txt");
  ASSERT_TRUE(config.ok());
  ASSERT_TRUE(
      WriteStringToFile(dir + "/config.txt", config.value() + "gdu_hidden=8\n")
          .ok());
  auto entries = ReadManifest(dir);
  ASSERT_TRUE(entries.ok());
  std::vector<std::string> files;
  for (const auto& entry : entries.value()) files.push_back(entry.file);
  ASSERT_TRUE(WriteManifest(dir, files).ok());

  auto loaded = serve::LoadSnapshot(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("duplicate key 'gdu_hidden'"),
            std::string::npos)
      << loaded.status().message();
  fs::remove_all(dir);
}

// ---- training checkpoint / resume -------------------------------------------

TEST(CrashCheckpointTest, ResumeReproducesUninterruptedRunBitForBit) {
  // Reference: one uninterrupted 5-epoch run, no checkpointing.
  core::FakeDetectorConfig config = CrashConfig();
  std::unique_ptr<core::FakeDetector> full(TrainDetector(config));

  // Interrupted run: 3 epochs with checkpointing, then a fresh process
  // image (a new detector) resumes from the newest checkpoint to 5.
  const std::string ckpt_dir = TestDir("fkd_crash_resume");
  config.checkpoint_dir = ckpt_dir;
  core::FakeDetectorConfig first_leg = config;
  first_leg.epochs = 3;
  std::unique_ptr<core::FakeDetector> interrupted(TrainDetector(first_leg));
  ASSERT_TRUE(fs::exists(ckpt_dir + "/ckpt-3"));

  std::unique_ptr<core::FakeDetector> resumed(TrainDetector(config));
  ExpectSameWeights(*full, *resumed);
  // Checkpoint pruning: only the newest `checkpoint_keep` survive.
  EXPECT_FALSE(fs::exists(ckpt_dir + "/ckpt-3"));
  EXPECT_TRUE(fs::exists(ckpt_dir + "/ckpt-5"));
  fs::remove_all(ckpt_dir);
}

TEST(CrashCheckpointTest, CorruptNewestCheckpointFallsBackToPrevious) {
  core::FakeDetectorConfig config = CrashConfig();
  std::unique_ptr<core::FakeDetector> full(TrainDetector(config));

  const std::string ckpt_dir = TestDir("fkd_crash_fallback");
  config.checkpoint_dir = ckpt_dir;
  core::FakeDetectorConfig first_leg = config;
  first_leg.epochs = 4;
  std::unique_ptr<core::FakeDetector> interrupted(TrainDetector(first_leg));
  ASSERT_TRUE(fs::exists(ckpt_dir + "/ckpt-4"));
  ASSERT_TRUE(fs::exists(ckpt_dir + "/ckpt-3"));

  // Rot the newest checkpoint's weights: resume must skip it (with a
  // warning) and continue from ckpt-3 — landing on the same bits as the
  // uninterrupted run, since epochs 3 and 4 are then re-run identically.
  const std::string victim = ckpt_dir + "/ckpt-4/model.fkdw";
  auto bytes = ReadFileToString(victim);
  ASSERT_TRUE(bytes.ok());
  std::string flipped = bytes.value();
  flipped[flipped.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(victim, flipped).ok());

  std::unique_ptr<core::FakeDetector> resumed(TrainDetector(config));
  ExpectSameWeights(*full, *resumed);
  fs::remove_all(ckpt_dir);
}

TEST(CrashCheckpointTest, CheckpointWriteFailureDoesNotFailTraining) {
  core::FakeDetectorConfig config = CrashConfig();
  const std::string ckpt_dir = TestDir("fkd_crash_ckpt_fail");
  config.checkpoint_dir = ckpt_dir;

  // Every checkpoint publish fails at the rename; training must still
  // finish (graceful degradation: only resumability is lost).
  ScopedFaults faults("io.rename:fail");
  core::FakeDetector detector(config);
  ASSERT_TRUE(detector.Train(Fixture().context).ok());
  EXPECT_FALSE(fs::exists(ckpt_dir + "/ckpt-" + std::to_string(config.epochs)));
  fs::remove_all(ckpt_dir);
}

TEST(CrashCheckpointTest, KillDuringCheckpointThenRetrainMatches) {
  core::FakeDetectorConfig config = CrashConfig();
  std::unique_ptr<core::FakeDetector> full(TrainDetector(config));

  const std::string ckpt_dir = TestDir("fkd_crash_ckpt_kill");
  config.checkpoint_dir = ckpt_dir;

  // The child is killed publishing its first checkpoint: the directory
  // must hold no accepted checkpoint, only staging litter.
  EXPECT_EXIT(
      {
        FKD_CHECK_OK(FaultInjector::Global().Configure("io.rename:crash@1"));
        core::FakeDetector victim(config);
        (void)victim.Train(Fixture().context);
        ::_exit(0);  // unreachable
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");
  ASSERT_TRUE(fs::exists(ckpt_dir));
  EXPECT_FALSE(fs::exists(ckpt_dir + "/ckpt-1"));

  // Training again over the same directory finds nothing to resume, starts
  // fresh, and matches the uninterrupted run (also pruning the litter).
  std::unique_ptr<core::FakeDetector> retrained(TrainDetector(config));
  ExpectSameWeights(*full, *retrained);
  fs::remove_all(ckpt_dir);
}

// ---- flight recorder on the way down ----------------------------------------

// A fault-injected crash mid-batch must leave a readable flight-recorder
// dump with the in-flight request's lifecycle events in it — the "black
// box" a postmortem starts from.
TEST(CrashFlightRecorderTest, FatalFaultDumpsInFlightRequestEvents) {
  const core::FakeDetector& detector = SnapshotDetector();
  const std::string snapshot_dir = TestDir("fkd_crash_recorder_snapshot");
  ASSERT_TRUE(serve::ExportSnapshot(detector, snapshot_dir).ok());
  auto loaded = serve::LoadSnapshot(snapshot_dir);
  ASSERT_TRUE(loaded.ok());
  auto snapshot =
      std::make_shared<const serve::Snapshot>(std::move(loaded).value());

  const std::string dump_path = TestDir("fkd_crash_recorder") + ".dump";
  fs::remove(dump_path);
  // Both parent and death-test child cache this path on first
  // FlightRecorder::Get(); the child is the only one that dumps.
  ASSERT_EQ(setenv("FKD_FLIGHT_RECORDER_PATH", dump_path.c_str(), 1), 0);

  EXPECT_EXIT(
      {
        // The same arming surface production uses: FKD_FAULTS grammar via
        // Configure. The first scoring batch dies with the request still
        // in flight.
        FKD_CHECK_OK(FaultInjector::Global().Configure("serve.batch:crash@1"));
        serve::InferenceEngine engine(snapshot);
        FKD_CHECK_OK(engine.Start());
        serve::ArticleRequest request;
        request.text = "doomed request";
        auto submitted = engine.Submit(std::move(request));
        FKD_CHECK(submitted.ok());
        (void)submitted.value().get();  // never resolves: the batch crashes
        ::_exit(0);                     // unreachable
      },
      ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  auto dumped = ReadFileToString(dump_path);
  ASSERT_TRUE(dumped.ok()) << "crash left no flight-recorder dump at "
                           << dump_path;
  const std::string& text = dumped.value();
  EXPECT_NE(text.find("=== fkd flight recorder ==="), std::string::npos);
  EXPECT_NE(text.find("fault_site=serve.batch"), std::string::npos);
  // The in-flight request's lifecycle is visible: accepted, queued, batch
  // formed, then the injected fault itself.
  EXPECT_NE(text.find("engine_start"), std::string::npos);
  EXPECT_NE(text.find("engine_enqueue"), std::string::npos);
  EXPECT_NE(text.find("batch_start"), std::string::npos);
  EXPECT_NE(text.find("fault"), std::string::npos);
  EXPECT_NE(text.find("=== end of dump ==="), std::string::npos);

  ASSERT_EQ(unsetenv("FKD_FLIGHT_RECORDER_PATH"), 0);
  fs::remove(dump_path);
  fs::remove_all(snapshot_dir);
}

}  // namespace
}  // namespace fkd
