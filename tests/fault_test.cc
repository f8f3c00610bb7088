#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/manifest.h"
#include "common/string_util.h"

namespace fkd {
namespace {

namespace fs = std::filesystem;

// Arms the global injector for one test and guarantees it is cleared even
// when an assertion fails — leaked rules would poison every later test in
// the process.
class ScopedFaults {
 public:
  explicit ScopedFaults(const std::string& spec) {
    FKD_CHECK_OK(FaultInjector::Global().Configure(spec));
  }
  ~ScopedFaults() { FaultInjector::Global().Clear(); }
};

std::string TestDir(const std::string& stem) {
  const std::string path =
      (fs::temp_directory_path() /
       (stem + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

// ---- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, DisabledByDefault) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.Hit("io.write"), FaultAction::kNone);
  EXPECT_TRUE(injector.Inject("io.write").ok());
  EXPECT_EQ(injector.HitCount("io.write"), 2u);
}

TEST(FaultInjectorTest, ParsesActionsAndRejectsGarbage) {
  FaultInjector injector;
  EXPECT_TRUE(injector.Configure("io.write:fail").ok());
  EXPECT_TRUE(injector.Configure("io.fsync:torn,io.rename:fatal").ok());
  EXPECT_TRUE(injector.Configure("serve.batch:fail@2*3").ok());
  EXPECT_TRUE(injector.Configure("").ok());  // empty spec = clear
  EXPECT_FALSE(injector.enabled());

  EXPECT_FALSE(injector.Configure("io.write").ok());          // no action
  EXPECT_FALSE(injector.Configure("io.write:explode").ok());  // bad action
  EXPECT_FALSE(injector.Configure(":fail").ok());             // no site
  EXPECT_FALSE(injector.Configure("io.write:fail@x").ok());   // bad ordinal
  EXPECT_FALSE(injector.Configure("io.write:fail*").ok());    // bad count
  EXPECT_FALSE(injector.Configure("a:fail,a:torn").ok());     // dup site
}

TEST(FaultInjectorTest, ArmsAtNthHit) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("s:fail@3").ok());
  EXPECT_EQ(injector.Hit("s"), FaultAction::kNone);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kNone);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kFail);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kFail);  // unbounded from there
  EXPECT_EQ(injector.Hit("other"), FaultAction::kNone);
}

TEST(FaultInjectorTest, TriggerCountLimitsConsecutiveFailures) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("s:fail@2*2").ok());
  EXPECT_EQ(injector.Hit("s"), FaultAction::kNone);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kFail);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kFail);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kNone);  // exhausted: recovery
}

TEST(FaultInjectorTest, InjectMapsActionsToStatuses) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("a:fail,b:fatal,c:torn").ok());
  EXPECT_EQ(injector.Inject("a").code(), StatusCode::kIoError);
  EXPECT_EQ(injector.Inject("b").code(), StatusCode::kInternal);
  EXPECT_EQ(injector.Inject("c").code(), StatusCode::kIoError);
  EXPECT_TRUE(injector.Inject("a").IsRetryable());
  EXPECT_FALSE(injector.Inject("b").IsRetryable());
}

TEST(FaultInjectorTest, ClearResetsRulesAndCounters) {
  FaultInjector injector;
  ASSERT_TRUE(injector.Configure("s:fail").ok());
  EXPECT_EQ(injector.Hit("s"), FaultAction::kFail);
  injector.Clear();
  EXPECT_FALSE(injector.enabled());
  EXPECT_EQ(injector.HitCount("s"), 0u);
  EXPECT_EQ(injector.Hit("s"), FaultAction::kNone);
}

// ---- CRC-32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / circulated reference vectors for the Castagnoli polynomial.
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  const char digits[] = "123456789";
  EXPECT_EQ(Crc32c(digits, 9), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "incrementally checksummed payload";
  uint32_t rolling = 0;
  for (char c : data) rolling = Crc32cExtend(rolling, &c, 1);
  EXPECT_EQ(rolling, Crc32c(data.data(), data.size()));
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::string data = "bit rot target";
  const uint32_t clean = Crc32c(data.data(), data.size());
  data[3] ^= 0x04;
  EXPECT_NE(Crc32c(data.data(), data.size()), clean);
}

// ---- FileWriter -------------------------------------------------------------

TEST(FileWriterTest, WriteCloseRoundTrip) {
  const std::string dir = TestDir("fkd_fault_fw");
  const std::string path = dir + "/out.bin";
  auto writer = FileWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append("hello ").ok());
  ASSERT_TRUE(writer.value().Append("world").ok());
  EXPECT_EQ(writer.value().bytes_written(), 11u);
  ASSERT_TRUE(writer.value().Close().ok());

  auto read_back = ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), "hello world");
  fs::remove_all(dir);
}

TEST(FileWriterTest, InjectedWriteFailureSurfacesAsIoError) {
  const std::string dir = TestDir("fkd_fault_fw_fail");
  ScopedFaults faults("io.write:fail@2");
  auto writer = FileWriter::Open(dir + "/out.bin");
  ASSERT_TRUE(writer.ok());
  EXPECT_TRUE(writer.value().Append("first").ok());
  const Status second = writer.value().Append("second");
  EXPECT_EQ(second.code(), StatusCode::kIoError);
  fs::remove_all(dir);
}

TEST(FileWriterTest, TornWriteLandsHalfTheBytes) {
  const std::string dir = TestDir("fkd_fault_fw_torn");
  const std::string path = dir + "/out.bin";
  {
    ScopedFaults faults("io.write:torn");
    auto writer = FileWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    const Status torn = writer.value().Append("0123456789");
    EXPECT_EQ(torn.code(), StatusCode::kIoError);
  }
  auto read_back = ReadFileToString(path);
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), "01234") << "torn write must land a prefix";
  fs::remove_all(dir);
}

TEST(FileWriterTest, InjectedFsyncFailureFailsClose) {
  const std::string dir = TestDir("fkd_fault_fw_fsync");
  ScopedFaults faults("io.fsync:fail");
  auto writer = FileWriter::Open(dir + "/out.bin");
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Append("data").ok());
  EXPECT_EQ(writer.value().Close().code(), StatusCode::kIoError);
  fs::remove_all(dir);
}

// ---- StagedDir --------------------------------------------------------------

TEST(StagedDirTest, CommitPublishesAtomically) {
  const std::string dir = TestDir("fkd_fault_staged");
  const std::string final_path = dir + "/artifact";
  auto staged = StagedDir::Create(final_path);
  ASSERT_TRUE(staged.ok());
  EXPECT_FALSE(fs::exists(final_path));
  ASSERT_TRUE(
      WriteStringToFile(staged.value().path() + "/payload.txt", "v1").ok());
  ASSERT_TRUE(staged.value().Commit().ok());
  EXPECT_TRUE(fs::exists(final_path + "/payload.txt"));
  EXPECT_FALSE(fs::exists(staged.value().path()));
  fs::remove_all(dir);
}

TEST(StagedDirTest, AbandonedStagingIsRemoved) {
  const std::string dir = TestDir("fkd_fault_staged_abandon");
  const std::string final_path = dir + "/artifact";
  std::string staging_path;
  {
    auto staged = StagedDir::Create(final_path);
    ASSERT_TRUE(staged.ok());
    staging_path = staged.value().path();
    ASSERT_TRUE(
        WriteStringToFile(staging_path + "/payload.txt", "half done").ok());
    // No Commit: simulated error path.
  }
  EXPECT_FALSE(fs::exists(staging_path));
  EXPECT_FALSE(fs::exists(final_path));
  fs::remove_all(dir);
}

TEST(StagedDirTest, CommitReplacesExistingDirectory) {
  const std::string dir = TestDir("fkd_fault_staged_replace");
  const std::string final_path = dir + "/artifact";
  for (int version = 1; version <= 2; ++version) {
    auto staged = StagedDir::Create(final_path);
    ASSERT_TRUE(staged.ok());
    ASSERT_TRUE(WriteStringToFile(staged.value().path() + "/payload.txt",
                                  StrFormat("v%d", version))
                    .ok());
    ASSERT_TRUE(staged.value().Commit().ok());
  }
  auto read_back = ReadFileToString(final_path + "/payload.txt");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back.value(), "v2");
  fs::remove_all(dir);
}

TEST(StagedDirTest, InjectedRenameFailureLeavesNothingPublished) {
  const std::string dir = TestDir("fkd_fault_staged_rename");
  const std::string final_path = dir + "/artifact";
  {
    ScopedFaults faults("io.rename:fail");
    auto staged = StagedDir::Create(final_path);
    ASSERT_TRUE(staged.ok());
    ASSERT_TRUE(
        WriteStringToFile(staged.value().path() + "/payload.txt", "v1").ok());
    EXPECT_EQ(staged.value().Commit().code(), StatusCode::kIoError);
  }
  EXPECT_FALSE(fs::exists(final_path));
  fs::remove_all(dir);
}

// ---- Manifest ---------------------------------------------------------------

TEST(ManifestTest, WriteVerifyRoundTrip) {
  const std::string dir = TestDir("fkd_fault_manifest");
  ASSERT_TRUE(WriteStringToFile(dir + "/a.txt", "alpha").ok());
  ASSERT_TRUE(WriteStringToFile(dir + "/b.bin", std::string(100, '\x7f')).ok());
  ASSERT_TRUE(WriteManifest(dir, {"a.txt", "b.bin"}).ok());
  EXPECT_TRUE(VerifyManifest(dir).ok());

  auto entries = ReadManifest(dir);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), 2u);
  EXPECT_EQ(entries.value()[0].file, "a.txt");
  EXPECT_EQ(entries.value()[0].size, 5u);
  fs::remove_all(dir);
}

TEST(ManifestTest, MissingManifestIsNotFound) {
  const std::string dir = TestDir("fkd_fault_manifest_missing");
  EXPECT_EQ(VerifyManifest(dir).code(), StatusCode::kNotFound);
  fs::remove_all(dir);
}

TEST(ManifestTest, ByteFlipFailsVerification) {
  const std::string dir = TestDir("fkd_fault_manifest_flip");
  ASSERT_TRUE(WriteStringToFile(dir + "/a.txt", "alpha beta gamma").ok());
  ASSERT_TRUE(WriteManifest(dir, {"a.txt"}).ok());
  ASSERT_TRUE(VerifyManifest(dir).ok());

  // Same size, one flipped bit: only the CRC can catch this.
  std::fstream f(dir + "/a.txt", std::ios::in | std::ios::out);
  f.seekp(6);
  f.put('X');
  f.close();
  const Status status = VerifyManifest(dir);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("a.txt"), std::string::npos)
      << "corruption error must name the bad file: " << status.message();
  fs::remove_all(dir);
}

TEST(ManifestTest, TruncationAndDeletionFailVerification) {
  const std::string dir = TestDir("fkd_fault_manifest_trunc");
  ASSERT_TRUE(WriteStringToFile(dir + "/a.txt", "twelve bytes").ok());
  ASSERT_TRUE(WriteManifest(dir, {"a.txt"}).ok());

  fs::resize_file(dir + "/a.txt", 4);
  EXPECT_EQ(VerifyManifest(dir).code(), StatusCode::kCorruption);

  fs::remove(dir + "/a.txt");
  EXPECT_EQ(VerifyManifest(dir).code(), StatusCode::kCorruption);
  fs::remove_all(dir);
}

TEST(ManifestTest, TamperedManifestLinesRejected) {
  const std::string dir = TestDir("fkd_fault_manifest_tamper");
  ASSERT_TRUE(WriteStringToFile(dir + "/a.txt", "alpha").ok());
  ASSERT_TRUE(WriteManifest(dir, {"a.txt"}).ok());

  auto manifest = ReadFileToString(dir + "/" + kManifestFileName);
  ASSERT_TRUE(manifest.ok());
  // Corrupt the header.
  ASSERT_TRUE(WriteStringToFile(dir + "/" + kManifestFileName,
                                "not a manifest\n")
                  .ok());
  EXPECT_EQ(ReadManifest(dir).status().code(), StatusCode::kCorruption);

  // Path traversal in an entry name must be rejected before any file I/O.
  ASSERT_TRUE(WriteStringToFile(dir + "/" + kManifestFileName,
                                "fkd-manifest v1\n5 00000000 ../evil\n")
                  .ok());
  EXPECT_EQ(ReadManifest(dir).status().code(), StatusCode::kCorruption);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fkd
