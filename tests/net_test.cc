// Network front-end suites. NetFrame*: FKDN/1 codec + decoder hardening
// (truncated frames, oversized length prefixes, corrupt CRCs, poisoning).
// NetServer*: the epoll server over real sockets — classify round trips,
// control frames, admission-control shedding, slow-loris and idle sweeps,
// mid-request disconnects, protocol-error isolation. NetShutdown*: the
// graceful-drain accounting invariant (no accepted request silently
// dropped). LoadGen*: the closed/open-loop load generator driving a live
// server, including the hot-swap-under-load zero-error gate. Net*/LoadGen*
// also run under TSan and ASan (tools/{tsan,asan}_smoke.sh).

#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "net/client.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "net/loadgen.h"
#include "net/reload_handlers.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/model_store.h"
#include "serve/router.h"

namespace fkd {
namespace net {
namespace {

// ---- shared trained fixture -------------------------------------------------

struct TrainedFixture {
  data::Dataset dataset;
  graph::HeterogeneousGraph graph;
  core::FakeDetector detector;
  std::string snapshot_dir;
};

core::FakeDetectorConfig TinyConfig() {
  core::FakeDetectorConfig config;
  config.epochs = 5;
  config.explicit_words = 40;
  config.latent_vocabulary = 120;
  config.hflu.max_sequence_length = 10;
  config.hflu.gru_hidden = 10;
  config.hflu.latent_dim = 8;
  config.hflu.embed_dim = 8;
  config.gdu_hidden = 12;
  config.verbose = false;
  return config;
}

const TrainedFixture& SharedFixture() {
  static TrainedFixture* fixture = [] {
    auto dataset =
        data::GeneratePolitiFact(data::GeneratorOptions::Scaled(55, 91));
    FKD_CHECK_OK(dataset.status());
    auto graph = dataset.value().BuildGraph();
    FKD_CHECK_OK(graph.status());
    auto* f = new TrainedFixture{std::move(dataset).value(),
                                 std::move(graph).value(),
                                 core::FakeDetector(TinyConfig()),
                                 {}};
    Rng rng(17);
    auto splits = data::KFoldTriSplits(f->dataset.articles.size(),
                                       f->dataset.creators.size(),
                                       f->dataset.subjects.size(), 5, &rng);
    FKD_CHECK_OK(splits.status());
    eval::TrainContext context;
    context.dataset = &f->dataset;
    context.graph = &f->graph;
    context.train_articles = splits.value()[0].articles.train;
    context.train_creators = splits.value()[0].creators.train;
    context.train_subjects = splits.value()[0].subjects.train;
    context.granularity = eval::LabelGranularity::kBinary;
    context.seed = 7;
    FKD_CHECK_OK(f->detector.Train(context));
    f->snapshot_dir = (std::filesystem::temp_directory_path() /
                       ("fkd_net_snapshot_" + std::to_string(::getpid())))
                          .string();
    std::filesystem::remove_all(f->snapshot_dir);
    FKD_CHECK_OK(serve::ExportSnapshot(f->detector, f->snapshot_dir));
    return f;
  }();
  return *fixture;
}

std::string SampleText(size_t i) {
  const auto& fixture = SharedFixture();
  return fixture.dataset.articles[i % fixture.dataset.articles.size()].text;
}

// ---- harness: router + server over a real socket ----------------------------

serve::RouterOptions FastRouterOptions() {
  serve::RouterOptions options;
  options.num_replicas = 1;
  options.engine.num_workers = 1;
  options.engine.max_batch_size = 8;
  options.engine.max_batch_delay_us = 200;
  options.engine.max_queue_depth = 4096;
  options.canary_permille = 0;
  return options;
}

struct Harness {
  std::unique_ptr<serve::VersionedModelStore> store;
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<Server> server;
  std::string snapshot_dir;

  ~Harness() {
    if (server != nullptr) server->Shutdown();
    if (router != nullptr) router->Stop();
  }
};

std::unique_ptr<Harness> StartHarness(
    ServerOptions server_options = {},
    serve::RouterOptions router_options = FastRouterOptions()) {
  auto harness = std::make_unique<Harness>();
  harness->snapshot_dir = SharedFixture().snapshot_dir;
  harness->store = std::make_unique<serve::VersionedModelStore>();
  auto model = harness->store->Load(harness->snapshot_dir);
  FKD_CHECK_OK(model.status());
  harness->router = std::make_unique<serve::Router>(router_options);
  FKD_CHECK_OK(harness->router->Start(std::move(model).value()));

  InstallReloadHandlers(harness->snapshot_dir, harness->router.get(),
                        harness->store.get(), &server_options);
  server_options.port = 0;  // always ephemeral in tests
  harness->server = std::make_unique<Server>(harness->router.get(),
                                             server_options);
  FKD_CHECK_OK(harness->server->Start());
  return harness;
}

/// Clears the global fault injector for the duration of a test, whatever
/// happens — a leaked rule would silently poison every later suite.
struct FaultGuard {
  FaultGuard() { FaultInjector::Global().Clear(); }
  ~FaultGuard() { FaultInjector::Global().Clear(); }
};

/// Minimal blocking test client with its own decoder.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FKD_CHECK_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    FKD_CHECK_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~TestClient() { Close(); }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  void SendRaw(const std::string& bytes) {
    size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + offset,
                               bytes.size() - offset, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << "client write failed: " << std::strerror(errno);
      offset += static_cast<size_t>(n);
    }
  }

  void Send(MessageType type, uint64_t request_id,
            const std::string& payload) {
    SendRaw(EncodeFrame(type, request_id, payload));
  }

  /// Reads until one frame decodes; fails the test on timeout/EOF.
  Frame ReadFrame(int timeout_ms = 10000) {
    Frame frame;
    bool ready = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const Status status = decoder_.Next(&frame, &ready);
      FKD_CHECK_OK(status);
      if (ready) return frame;
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      FKD_CHECK_GT(remaining.count(), 0) << "timed out waiting for a frame";
      pollfd pfd{fd_, POLLIN, 0};
      const int rv = ::poll(&pfd, 1, static_cast<int>(remaining.count()));
      FKD_CHECK_GT(rv, 0) << "poll timeout/error waiting for a frame";
      char chunk[16 * 1024];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      FKD_CHECK_GT(n, 0) << "connection closed while expecting a frame";
      decoder_.Append(chunk, static_cast<size_t>(n));
    }
  }

  /// Reads frames until the server closes; returns them.
  std::vector<Frame> ReadUntilClose(int timeout_ms = 10000) {
    std::vector<Frame> frames;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      Frame frame;
      bool ready = false;
      if (decoder_.Next(&frame, &ready).ok() && ready) {
        frames.push_back(std::move(frame));
        continue;
      }
      const auto remaining = std::chrono::duration_cast<
          std::chrono::milliseconds>(deadline -
                                     std::chrono::steady_clock::now());
      if (remaining.count() <= 0) {
        ADD_FAILURE() << "server never closed the connection";
        return frames;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(remaining.count())) <= 0) continue;
      char chunk[16 * 1024];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return frames;  // closed
      decoder_.Append(chunk, static_cast<size_t>(n));
    }
  }

  struct Classification {
    ClassifyResponseMsg msg;
  };

  Result<Classification> Classify(const std::string& text,
                                  uint64_t request_id) {
    ClassifyRequestMsg msg;
    msg.text = text;
    Send(MessageType::kClassifyRequest, request_id,
         EncodeClassifyRequest(msg));
    Frame frame = ReadFrame();
    FKD_CHECK_EQ(static_cast<int>(frame.type),
                 static_cast<int>(MessageType::kClassifyResponse));
    FKD_CHECK_EQ(frame.request_id, request_id);
    auto decoded = DecodeClassifyResponse(frame.payload);
    FKD_CHECK_OK(decoded.status());
    if (!decoded.value().ok) {
      return Status(static_cast<StatusCode>(decoded.value().status_code),
                    decoded.value().message);
    }
    Classification out;
    out.msg = decoded.value();
    return out;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

// ---- helpers for crafting corrupt frames ------------------------------------

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Hand-builds a frame so tests can forge arbitrary header fields; the
/// header CRC is recomputed unless `break_header_crc`.
std::string ForgeFrame(uint32_t magic, uint8_t version, uint8_t type,
                       uint16_t flags, uint32_t payload_len,
                       const std::string& payload,
                       bool break_header_crc = false,
                       bool break_payload_crc = false) {
  std::string out;
  PutU32(&out, magic);
  out.push_back(static_cast<char>(version));
  out.push_back(static_cast<char>(type));
  PutU16(&out, flags);
  PutU64(&out, 77);
  PutU32(&out, payload_len);
  uint32_t payload_crc = Crc32c(payload.data(), payload.size());
  if (break_payload_crc) payload_crc ^= 0xdeadbeef;
  PutU32(&out, payload_crc);
  uint32_t header_crc = Crc32c(out.data(), out.size());
  if (break_header_crc) header_crc ^= 1;
  PutU32(&out, header_crc);
  out += payload;
  return out;
}

// ==== NetFrameTest: codec + decoder hardening ================================

TEST(NetFrameTest, FrameRoundTripsThroughDecoder) {
  const std::string payload = "hello fkdn";
  const std::string bytes =
      EncodeFrame(MessageType::kClassifyRequest, 42, payload);
  EXPECT_EQ(bytes.size(), kHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  ASSERT_TRUE(decoder.Next(&frame, &ready).ok());
  ASSERT_TRUE(ready);
  EXPECT_EQ(frame.type, MessageType::kClassifyRequest);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.payload, payload);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(NetFrameTest, DecoderReassemblesByteAtATime) {
  std::string stream;
  for (uint64_t i = 0; i < 5; ++i) {
    stream += EncodeFrame(MessageType::kPing, i, "payload-" + std::to_string(i));
  }
  FrameDecoder decoder;
  size_t decoded = 0;
  for (char byte : stream) {
    decoder.Append(&byte, 1);
    Frame frame;
    bool ready = true;
    while (ready) {
      ASSERT_TRUE(decoder.Next(&frame, &ready).ok());
      if (ready) {
        EXPECT_EQ(frame.request_id, decoded);
        ++decoded;
      }
    }
  }
  EXPECT_EQ(decoded, 5u);
}

TEST(NetFrameTest, TruncatedFrameWaitsForMoreBytes) {
  const std::string bytes = EncodeFrame(MessageType::kPing, 1, "abcdef");
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size() - 3);
  Frame frame;
  bool ready = true;
  ASSERT_TRUE(decoder.Next(&frame, &ready).ok());
  EXPECT_FALSE(ready);
  EXPECT_FALSE(decoder.poisoned());
  decoder.Append(bytes.data() + bytes.size() - 3, 3);
  ASSERT_TRUE(decoder.Next(&frame, &ready).ok());
  EXPECT_TRUE(ready);
  EXPECT_EQ(frame.payload, "abcdef");
}

TEST(NetFrameTest, BadMagicPoisonsTheDecoder) {
  const std::string bytes = ForgeFrame(0x12345678u, kProtocolVersion, 1, 0, 0, "");
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  const Status status = decoder.Next(&frame, &ready);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(decoder.poisoned());
  // Poisoned decoders stay poisoned, even fed a pristine frame.
  const std::string good = EncodeFrame(MessageType::kPing, 1, "");
  decoder.Append(good.data(), good.size());
  EXPECT_FALSE(decoder.Next(&frame, &ready).ok());
}

TEST(NetFrameTest, HeaderCrcMismatchDetectedBeforeLengthIsTrusted) {
  // An absurd payload_len rides behind a broken header CRC: the decoder
  // must fail on the CRC, never interpret the length.
  const std::string bytes =
      ForgeFrame(kMagic, kProtocolVersion, 1, 0, 0xffffffffu, "",
                 /*break_header_crc=*/true);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  const Status status = decoder.Next(&frame, &ready);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("header CRC"), std::string::npos)
      << status.message();
}

TEST(NetFrameTest, OversizedLengthPrefixRejected) {
  // Valid CRCs, hostile length: must error out, not allocate 4 GiB.
  const std::string bytes =
      ForgeFrame(kMagic, kProtocolVersion, 1, 0, 0xfffffff0u, "");
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  const Status status = decoder.Next(&frame, &ready);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("exceeds"), std::string::npos)
      << status.message();
}

TEST(NetFrameTest, PayloadCrcMismatchRejected) {
  const std::string payload = "payload bytes";
  const std::string bytes = ForgeFrame(
      kMagic, kProtocolVersion, 1, 0, static_cast<uint32_t>(payload.size()),
      payload, /*break_header_crc=*/false, /*break_payload_crc=*/true);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  const Status status = decoder.Next(&frame, &ready);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("payload CRC"), std::string::npos)
      << status.message();
}

TEST(NetFrameTest, WrongVersionAndReservedFlagsRejected) {
  {
    const std::string bytes = ForgeFrame(kMagic, 9, 1, 0, 0, "");
    FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    Frame frame;
    bool ready = false;
    EXPECT_FALSE(decoder.Next(&frame, &ready).ok());
  }
  {
    const std::string bytes = ForgeFrame(kMagic, kProtocolVersion, 1, 7, 0, "");
    FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    Frame frame;
    bool ready = false;
    EXPECT_FALSE(decoder.Next(&frame, &ready).ok());
  }
}

TEST(NetFrameTest, DecoderHonoursCustomPayloadCeiling) {
  FrameDecoder decoder(/*max_payload=*/16);
  const std::string bytes =
      EncodeFrame(MessageType::kPing, 1, std::string(17, 'x'));
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool ready = false;
  EXPECT_FALSE(decoder.Next(&frame, &ready).ok());
}

TEST(NetFrameTest, ClassifyRequestCodecRoundTrips) {
  ClassifyRequestMsg msg;
  msg.text = "suspicious claim text";
  msg.creator_id = 12;
  msg.subject_ids = {3, 1, 4};
  msg.deadline_us = 250000;
  auto decoded = DecodeClassifyRequest(EncodeClassifyRequest(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().text, msg.text);
  EXPECT_EQ(decoded.value().creator_id, 12);
  EXPECT_EQ(decoded.value().subject_ids, msg.subject_ids);
  EXPECT_EQ(decoded.value().deadline_us, 250000);
}

TEST(NetFrameTest, ClassifyResponseCodecRoundTripsBothHalves) {
  {
    ClassifyResponseMsg msg;
    msg.ok = true;
    msg.class_id = 1;
    msg.class_name = "fake";
    msg.probabilities = {0.25f, 0.75f};
    msg.model_version = 7;
    msg.batch_size = 4;
    msg.from_cache = true;
    msg.queue_us = 10.5;
    msg.total_us = 99.25;
    auto decoded = DecodeClassifyResponse(EncodeClassifyResponse(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_TRUE(decoded.value().ok);
    EXPECT_EQ(decoded.value().class_name, "fake");
    EXPECT_EQ(decoded.value().probabilities, msg.probabilities);
    EXPECT_EQ(decoded.value().model_version, 7u);
    EXPECT_TRUE(decoded.value().from_cache);
    EXPECT_DOUBLE_EQ(decoded.value().total_us, 99.25);
  }
  {
    ClassifyResponseMsg msg;
    msg.ok = false;
    msg.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
    msg.message = "shed";
    auto decoded = DecodeClassifyResponse(EncodeClassifyResponse(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_FALSE(decoded.value().ok);
    EXPECT_EQ(decoded.value().status_code,
              static_cast<uint8_t>(StatusCode::kUnavailable));
    EXPECT_EQ(decoded.value().message, "shed");
  }
}

TEST(NetFrameTest, ControlAndCanaryCodecsRoundTrip) {
  ControlResponseMsg msg;
  msg.ok = true;
  msg.value = 31337;
  auto decoded = DecodeControlResponse(EncodeControlResponse(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().ok);
  EXPECT_EQ(decoded.value().value, 31337u);

  auto permille = DecodeCanaryRequest(EncodeCanaryRequest(250));
  ASSERT_TRUE(permille.ok());
  EXPECT_EQ(permille.value(), 250u);
}

TEST(NetFrameTest, TruncatedPayloadsFailCleanly) {
  ClassifyRequestMsg msg;
  msg.text = "some text";
  msg.subject_ids = {1, 2};
  const std::string payload = EncodeClassifyRequest(msg);
  for (size_t cut = 0; cut < payload.size(); cut += 3) {
    auto decoded = DecodeClassifyRequest(payload.substr(0, cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
}

// ==== NetServerTest: live socket behaviour ===================================

TEST(NetServerTest, ClassifyRoundTripServesRealModel) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  auto result = client.Classify(SampleText(0), 1001);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ClassifyResponseMsg& msg = result.value().msg;
  EXPECT_GE(msg.class_id, 0);
  EXPECT_FALSE(msg.class_name.empty());
  EXPECT_EQ(msg.probabilities.size(), 2u);
  EXPECT_EQ(msg.model_version, 1u);
  EXPECT_GT(msg.total_us, 0.0);

  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.classify_frames, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(NetServerTest, PingEchoesPayload) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  client.Send(MessageType::kPing, 5, "echo me");
  Frame frame = client.ReadFrame();
  EXPECT_EQ(frame.type, MessageType::kPong);
  EXPECT_EQ(frame.request_id, 5u);
  EXPECT_EQ(frame.payload, "echo me");
}

TEST(NetServerTest, RepeatRequestServedFromScoreCache) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  auto first = client.Classify(SampleText(1), 1);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().msg.from_cache);
  auto second = client.Classify(SampleText(1), 2);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().msg.from_cache);
  EXPECT_EQ(second.value().msg.class_id, first.value().msg.class_id);
}

TEST(NetServerTest, MalformedPayloadAnswersErrorWithoutKillingStream) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  // The frame is wire-clean (CRCs pass) but the body is garbage: the
  // stream stays in sync, so the server answers instead of disconnecting.
  client.Send(MessageType::kClassifyRequest, 9, "not a classify payload");
  Frame frame = client.ReadFrame();
  EXPECT_EQ(frame.type, MessageType::kClassifyResponse);
  auto decoded = DecodeClassifyResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().ok);
  // Same connection still serves a good request.
  auto result = client.Classify(SampleText(2), 10);
  EXPECT_TRUE(result.ok());
}

TEST(NetServerTest, GarbageBytesGetErrorFrameThenClose) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  client.SendRaw("this is not an FKDN stream at all, not even close");
  std::vector<Frame> frames = client.ReadUntilClose();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kError);
  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.classify_frames, 0u);

  // The neighbour connection is unaffected.
  TestClient neighbour(harness->server->bound_port());
  EXPECT_TRUE(neighbour.Classify(SampleText(3), 11).ok());
}

TEST(NetServerTest, UnexpectedFrameTypeClosesConnection) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  ClassifyResponseMsg bogus;
  bogus.ok = false;
  client.Send(MessageType::kClassifyResponse, 3,
              EncodeClassifyResponse(bogus));
  std::vector<Frame> frames = client.ReadUntilClose();
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(harness->server->Stats().protocol_errors, 1u);
}

TEST(NetServerTest, CorruptHeaderOnTheWireIsCaught) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  std::string bytes = EncodeFrame(MessageType::kPing, 1, "payload");
  bytes[17] ^= 0x40;  // flip a payload_len bit; header CRC now mismatches
  client.SendRaw(bytes);
  std::vector<Frame> frames = client.ReadUntilClose();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kError);
  EXPECT_EQ(harness->server->Stats().protocol_errors, 1u);
}

TEST(NetServerTest, AdmissionControlShedsWhenEngineQueueSaturated) {
  ServerOptions server_options;
  server_options.shed_queue_depth = 4;
  serve::RouterOptions router_options = FastRouterOptions();
  // One slow-forming batch pipeline: the worker waits 200 ms for
  // stragglers, so pipelined unique requests pile up in the queue.
  router_options.engine.max_batch_size = 4;
  router_options.engine.max_batch_delay_us = 200000;
  router_options.cache_capacity = 0;  // every request must hit the engine
  auto harness = StartHarness(server_options, router_options);

  TestClient client(harness->server->bound_port());
  constexpr size_t kRequests = 40;
  std::string burst;
  for (size_t i = 0; i < kRequests; ++i) {
    ClassifyRequestMsg msg;
    msg.text = SampleText(i) + " #" + std::to_string(i);
    burst += EncodeFrame(MessageType::kClassifyRequest, 100 + i,
                         EncodeClassifyRequest(msg));
  }
  client.SendRaw(burst);

  size_t ok = 0;
  size_t shed = 0;
  for (size_t i = 0; i < kRequests; ++i) {
    Frame frame = client.ReadFrame(30000);
    ASSERT_EQ(frame.type, MessageType::kClassifyResponse);
    auto decoded = DecodeClassifyResponse(frame.payload);
    ASSERT_TRUE(decoded.ok());
    if (decoded.value().ok) {
      ++ok;
    } else {
      EXPECT_EQ(decoded.value().status_code,
                static_cast<uint8_t>(StatusCode::kUnavailable));
      ++shed;
    }
  }
  // Every request answered, some explicitly shed — never a hang or drop.
  EXPECT_EQ(ok + shed, kRequests);
  EXPECT_GT(shed, 0u) << "expected queue-depth shedding under the burst";
  EXPECT_GT(ok, 0u);
  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.classify_frames, kRequests);
}

TEST(NetServerTest, SlowLorisConnectionIsClosed) {
  ServerOptions server_options;
  server_options.idle_timeout_ms = 300;
  auto harness = StartHarness(server_options);
  TestClient client(harness->server->bound_port());

  // Dribble a valid frame one byte every 100 ms: activity never stops, but
  // the frame never completes — the loris sweep must kill it anyway. The
  // sweep can close the socket between two drips, so a drip may meet a
  // reset: MSG_NOSIGNAL turns that into EPIPE/ECONNRESET ("closed")
  // instead of a SIGPIPE that kills the test.
  const std::string bytes = EncodeFrame(MessageType::kPing, 1, "loris");
  const auto reset = [] { return errno == EPIPE || errno == ECONNRESET; };
  bool closed = false;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < bytes.size() && !closed; ++i) {
    if (::send(client.fd(), &bytes[i], 1, MSG_NOSIGNAL) < 0) {
      ASSERT_TRUE(reset()) << "drip failed: " << std::strerror(errno);
      closed = true;
      break;
    }
    pollfd pfd{client.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 100) > 0) {
      char sink[64];
      const ssize_t n = ::read(client.fd(), sink, sizeof(sink));
      if (n == 0 || (n < 0 && reset())) closed = true;
    }
    if (std::chrono::steady_clock::now() - start >
        std::chrono::seconds(10)) {
      break;
    }
  }
  if (!closed) {
    // Out of bytes before the sweep fired; wait for the close.
    std::vector<Frame> frames = client.ReadUntilClose();
    EXPECT_TRUE(frames.empty());
  }
  // The sweep, not the peer, closed it.
  for (int i = 0; i < 100; ++i) {
    if (harness->server->Stats().idle_closed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(harness->server->Stats().idle_closed, 1u);
}

TEST(NetServerTest, IdleConnectionIsClosed) {
  ServerOptions server_options;
  server_options.idle_timeout_ms = 200;
  auto harness = StartHarness(server_options);
  TestClient client(harness->server->bound_port());
  std::vector<Frame> frames = client.ReadUntilClose(5000);
  EXPECT_TRUE(frames.empty());
  // The client can see the EOF a beat before the sweep bumps the counter.
  for (int i = 0; i < 100; ++i) {
    if (harness->server->Stats().idle_closed > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(harness->server->Stats().idle_closed, 1u);
}

TEST(NetServerTest, MidRequestDisconnectNeverLeaksTheSlot) {
  serve::RouterOptions router_options = FastRouterOptions();
  router_options.engine.max_batch_delay_us = 100000;  // keep it in flight
  router_options.cache_capacity = 0;
  auto harness = StartHarness({}, router_options);
  {
    TestClient client(harness->server->bound_port());
    ClassifyRequestMsg msg;
    msg.text = SampleText(4) + " #disconnect";
    client.Send(MessageType::kClassifyRequest, 55,
                EncodeClassifyRequest(msg));
    // Give the loop a moment to decode + submit, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // client destructor closes the socket with the request in flight
  ServerStats stats;
  for (int i = 0; i < 200; ++i) {
    stats = harness->server->Stats();
    if (stats.responses_dropped + stats.responses_error +
            stats.responses_ok ==
        stats.classify_frames) {
      if (stats.inflight == 0 && stats.classify_frames == 1) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(stats.classify_frames, 1u);
  EXPECT_EQ(stats.responses_dropped, 1u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(NetServerTest, ConnectionCapRefusesExtraClients) {
  ServerOptions server_options;
  server_options.max_connections = 1;
  auto harness = StartHarness(server_options);
  TestClient keeper(harness->server->bound_port());
  ASSERT_TRUE(keeper.Classify(SampleText(5), 1).ok());
  TestClient refused(harness->server->bound_port());
  std::vector<Frame> frames = refused.ReadUntilClose(5000);
  EXPECT_TRUE(frames.empty());
  EXPECT_GE(harness->server->Stats().over_capacity, 1u);
  // The admitted connection still works.
  EXPECT_TRUE(keeper.Classify(SampleText(6), 2).ok());
}

TEST(NetServerTest, SwapAndCanaryControlFramesDriveTheRouter) {
  auto harness = StartHarness();
  const int port = harness->server->bound_port();
  TestClient client(port);
  auto before = client.Classify(SampleText(7), 1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().msg.model_version, 1u);

  auto swapped = RequestSwap("127.0.0.1", port);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value(), 2u);
  EXPECT_EQ(harness->router->active_version(), 2u);
  // Uncached request after the swap carries the new version.
  ClassifyRequestMsg msg;
  msg.text = SampleText(7) + " #post-swap";
  client.Send(MessageType::kClassifyRequest, 2, EncodeClassifyRequest(msg));
  Frame frame = client.ReadFrame();
  auto decoded = DecodeClassifyResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().ok);
  EXPECT_EQ(decoded.value().model_version, 2u);

  // Stopping a canary that never started is an idempotent no-op (the
  // loadgen's canary sweep starts from permille 0).
  auto noop = RequestCanary("127.0.0.1", port, 0);
  ASSERT_TRUE(noop.ok()) << noop.status().ToString();

  auto canary = RequestCanary("127.0.0.1", port, 250);
  ASSERT_TRUE(canary.ok()) << canary.status().ToString();
  EXPECT_EQ(canary.value(), 3u);
  auto stopped = RequestCanary("127.0.0.1", port, 0);
  ASSERT_TRUE(stopped.ok());
  EXPECT_EQ(harness->server->Stats().swaps, 1u);
}

TEST(NetServerTest, CacheHitsAreAnsweredWithoutALoopWakeup) {
  FaultGuard guard;
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  // Armed beyond reach: the injector counts every cross-thread loop wakeup
  // (site net.eventfd) without ever dropping one.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.eventfd:fail@1000000000").ok());
  const std::string text = SampleText(9);
  ASSERT_TRUE(client.Classify(text, 1).ok());  // miss: the worker wakes it
  const uint64_t before = FaultInjector::Global().HitCount("net.eventfd");
  for (uint64_t i = 0; i < 100; ++i) {
    auto hit = client.Classify(text, 2 + i);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit.value().msg.from_cache);
  }
  // Each hit completed inside Router::Submit on the connection's own loop,
  // which flushed it at the end of the iteration: no handoff, no wakeup.
  EXPECT_EQ(FaultInjector::Global().HitCount("net.eventfd") - before, 0u);
  EXPECT_EQ(harness->server->Stats().responses_ok, 101u);
}

TEST(NetServerTest, ReloadHandlersRetireEveryReplacedVersion) {
  auto harness = StartHarness();
  const int port = harness->server->bound_port();
  for (int i = 0; i < 10; ++i) {
    auto swapped = RequestSwap("127.0.0.1", port);
    ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  }
  auto started = RequestCanary("127.0.0.1", port, 250);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  auto restarted = RequestCanary("127.0.0.1", port, 500);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_GT(restarted.value(), started.value());
  ASSERT_TRUE(RequestCanary("127.0.0.1", port, 0).ok());

  // Only the serving version stays registered; every retired one dies once
  // its last reference drains (the quarantine monitor may hold a fleet for
  // one more pass).
  const uint64_t active = harness->router->active_version();
  EXPECT_EQ(active, 11u);
  EXPECT_EQ(harness->store->ResidentVersions(), std::vector<uint64_t>{active});
  EXPECT_EQ(harness->store->Stats().active_version, active);
  EXPECT_EQ(harness->store->Stats().retired, 12u);
  for (int i = 0; i < 200; ++i) {
    if (harness->store->Stats().retired_still_alive == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(harness->store->Stats().retired_still_alive, 0u);
  EXPECT_EQ(harness->server->Stats().swaps, 10u);
}

TEST(NetServerTest, QueueDepthSignalIsZeroAtRest) {
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  ASSERT_TRUE(client.Classify(SampleText(8), 1).ok());
  EXPECT_EQ(harness->router->QueueDepth(), 0u);
}

// ==== NetShutdownTest: graceful drain ========================================

TEST(NetShutdownTest, DrainFlushesEveryAcceptedRequest) {
  serve::RouterOptions router_options = FastRouterOptions();
  router_options.cache_capacity = 0;
  auto harness = StartHarness({}, router_options);
  TestClient client(harness->server->bound_port());

  constexpr size_t kRequests = 24;
  std::string burst;
  for (size_t i = 0; i < kRequests; ++i) {
    ClassifyRequestMsg msg;
    msg.text = SampleText(i) + " #drain-" + std::to_string(i);
    burst += EncodeFrame(MessageType::kClassifyRequest, i + 1,
                         EncodeClassifyRequest(msg));
  }
  client.SendRaw(burst);
  // Let the loop accept some in-flight work, then shut down mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread shutdown([&] { harness->server->Shutdown(); });

  // Every frame the server accepted must produce a response before the
  // close: some classified, some shed with Unavailable — none dropped.
  std::vector<Frame> frames = client.ReadUntilClose(30000);
  shutdown.join();

  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.classify_frames,
            stats.responses_ok + stats.responses_error +
                stats.responses_dropped)
      << "accounting invariant violated";
  EXPECT_EQ(stats.responses_dropped, 0u)
      << "client stayed connected; nothing may be dropped";
  EXPECT_EQ(frames.size(), stats.classify_frames)
      << "every accepted classify got a response frame before the close";
  for (const Frame& frame : frames) {
    EXPECT_EQ(frame.type, MessageType::kClassifyResponse);
  }
}

TEST(NetShutdownTest, ShutdownIsIdempotentAndRefusesNewWork) {
  auto harness = StartHarness();
  const int port = harness->server->bound_port();
  harness->server->Shutdown();
  harness->server->Shutdown();  // second call is a no-op
  // The listen socket is gone: connects are refused. (One loophole: with
  // the listener closed the port is free, so the kernel may pick it as the
  // client's own ephemeral source port and complete a TCP self-connection.
  // That still proves no server listens — a real listener would have given
  // the client a different source port.)
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    sockaddr_in local{};
    socklen_t len = sizeof(local);
    ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&local), &len), 0);
    EXPECT_EQ(local.sin_port, addr.sin_port)
        << "a non-self connect succeeded: something still listens";
  }
  ::close(fd);
}

// ==== LoadGenTest: the harness measuring the harness =========================

std::vector<ClassifyRequestMsg> SmallCorpus(size_t n) {
  std::vector<ClassifyRequestMsg> corpus;
  for (size_t i = 0; i < n; ++i) {
    ClassifyRequestMsg msg;
    msg.text = SampleText(i);
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

TEST(LoadGenTest, ClosedLoopRoundTripAgainstLiveServer) {
  auto harness = StartHarness();
  LoadGenOptions options;
  options.port = harness->server->bound_port();
  options.connections = 2;
  options.window = 2;
  options.duration_ms = 1000;
  options.warmup_ms = 200;
  options.corpus = SmallCorpus(10);
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().mode, "closed");
  EXPECT_GT(report.value().ok, 0u);
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_EQ(report.value().connect_failures, 0u);
  EXPECT_EQ(report.value().io_errors, 0u);
  EXPECT_GT(report.value().achieved_qps, 0.0);
  EXPECT_GT(report.value().p50_us, 0.0);
  EXPECT_GE(report.value().p99_us, report.value().p50_us);
  EXPECT_GT(report.value().from_cache, 0u) << "10 texts must repeat";
  const std::string json = report.value().ToJson();
  EXPECT_NE(json.find("\"achieved_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
}

TEST(LoadGenTest, OpenLoopHoldsItsSchedule) {
  auto harness = StartHarness();
  LoadGenOptions options;
  options.port = harness->server->bound_port();
  options.connections = 2;
  options.open_loop_qps = 200.0;
  options.duration_ms = 1000;
  options.warmup_ms = 200;
  options.corpus = SmallCorpus(10);
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report.value().mode, "open");
  // The schedule sends ~200 requests over the measured second; allow wide
  // slack for CI jitter but catch a broken pacer (0 or unbounded).
  EXPECT_GT(report.value().sent, 100u);
  EXPECT_LT(report.value().sent, 400u);
  EXPECT_EQ(report.value().errors, 0u);
}

TEST(LoadGenTest, UniqueRequestsDefeatTheScoreCache) {
  auto harness = StartHarness();
  LoadGenOptions options;
  options.port = harness->server->bound_port();
  options.connections = 1;
  options.window = 2;
  options.duration_ms = 500;
  options.warmup_ms = 100;
  options.corpus = SmallCorpus(4);
  options.unique_requests = true;
  auto report = RunLoadGen(options);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().ok, 0u);
  EXPECT_EQ(report.value().from_cache, 0u);
}

TEST(LoadGenTest, DeadServerReportsConnectFailure) {
  LoadGenOptions options;
  options.port = 1;  // nothing listens on port 1
  options.connections = 2;
  options.duration_ms = 100;
  options.warmup_ms = 0;
  options.corpus = SmallCorpus(1);
  auto report = RunLoadGen(options);
  EXPECT_FALSE(report.ok());
}

TEST(LoadGenTest, HotSwapUnderLoadCompletesWithZeroFailures) {
  serve::RouterOptions router_options = FastRouterOptions();
  router_options.cache_capacity = 0;  // every request rides an engine
  auto harness = StartHarness({}, router_options);
  const int port = harness->server->bound_port();

  LoadGenOptions options;
  options.port = port;
  options.connections = 2;
  options.window = 3;
  options.duration_ms = 1500;
  options.warmup_ms = 100;
  options.corpus = SmallCorpus(12);
  options.unique_requests = true;

  std::atomic<bool> done{false};
  uint64_t last_version = 0;
  std::thread swapper([&] {
    // Two live hot-swaps while the closed loop hammers the server.
    for (int i = 0; i < 2 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      auto version = RequestSwap("127.0.0.1", port);
      ASSERT_TRUE(version.ok()) << version.status().ToString();
      last_version = version.value();
    }
  });
  auto report = RunLoadGen(options);
  done.store(true);
  swapper.join();

  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().ok, 0u);
  // The acceptance gate: a hot swap under sustained load is invisible to
  // clients — zero errors, zero lost connections, zero shed.
  EXPECT_EQ(report.value().errors, 0u);
  EXPECT_EQ(report.value().io_errors, 0u);
  EXPECT_EQ(report.value().connect_failures, 0u);
  EXPECT_EQ(last_version, 3u);
  EXPECT_EQ(harness->router->active_version(), 3u);
  EXPECT_EQ(harness->server->Stats().swaps, 2u);

  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.classify_frames,
            stats.responses_ok + stats.responses_error +
                stats.responses_dropped);
}

// ==== RetryPolicyTest: backoff/jitter/deadline math, no real sleeps =========

TEST(RetryPolicyTest, BackoffDoublesAndCaps) {
  RetryOptions options;
  options.backoff_base_us = 1000;
  options.backoff_max_us = 250000;
  RetryPolicy policy(options);
  EXPECT_EQ(policy.BackoffUs(0), 0);
  EXPECT_EQ(policy.BackoffUs(1), 1000);
  EXPECT_EQ(policy.BackoffUs(2), 2000);
  EXPECT_EQ(policy.BackoffUs(3), 4000);
  EXPECT_EQ(policy.BackoffUs(8), 128000);
  EXPECT_EQ(policy.BackoffUs(9), 250000);   // capped
  EXPECT_EQ(policy.BackoffUs(60), 250000);  // shift-overflow guarded
}

TEST(RetryPolicyTest, SameSeedSameScheduleDifferentSeedDiverges) {
  RetryOptions options;
  options.max_attempts = 10;
  options.seed = 42;
  RetryPolicy a(options);
  RetryPolicy b(options);
  options.seed = 43;
  RetryPolicy c(options);
  bool diverged = false;
  for (int attempt = 1; attempt < 8; ++attempt) {
    const int64_t da = a.NextDelayUs(attempt, 0, 0);
    const int64_t db = b.NextDelayUs(attempt, 0, 0);
    const int64_t dc = c.NextDelayUs(attempt, 0, 0);
    EXPECT_EQ(da, db) << "same seed must produce the same jittered delay";
    if (da != dc) diverged = true;
  }
  EXPECT_TRUE(diverged) << "different seeds should produce different jitter";
}

TEST(RetryPolicyTest, JitterStaysInsideTheDeterministicEnvelope) {
  RetryOptions options;
  options.max_attempts = 100;
  options.jitter = 0.5;
  RetryPolicy policy(options);
  for (int i = 0; i < 50; ++i) {
    const int attempt = 1 + (i % 6);
    const int64_t raw = policy.BackoffUs(attempt);
    const int64_t jittered = policy.NextDelayUs(attempt, 0, 0);
    ASSERT_GE(jittered, raw / 2) << "below the [delay*(1-j), delay] floor";
    ASSERT_LE(jittered, raw) << "jitter must never exceed the raw backoff";
  }
}

TEST(RetryPolicyTest, ZeroJitterIsExactBackoff) {
  RetryOptions options;
  options.jitter = 0.0;
  options.max_attempts = 8;
  RetryPolicy policy(options);
  for (int attempt = 1; attempt < 5; ++attempt) {
    EXPECT_EQ(policy.NextDelayUs(attempt, 0, 0), policy.BackoffUs(attempt));
  }
}

TEST(RetryPolicyTest, ExhaustedAttemptsRefuse) {
  RetryOptions options;
  options.max_attempts = 3;  // one send + two retries
  RetryPolicy policy(options);
  EXPECT_GE(policy.NextDelayUs(1, 0, 0), 0);
  EXPECT_GE(policy.NextDelayUs(2, 0, 0), 0);
  EXPECT_EQ(policy.NextDelayUs(3, 0, 0), -1);
  EXPECT_EQ(policy.NextDelayUs(4, 0, 0), -1);

  RetryOptions one;
  one.max_attempts = 1;  // no retries at all
  RetryPolicy no_retries(one);
  EXPECT_EQ(no_retries.NextDelayUs(1, 0, 0), -1);
}

TEST(RetryPolicyTest, DeadlineTruncatesUselessRetries) {
  RetryOptions options;
  options.jitter = 0.0;
  options.backoff_base_us = 10000;
  RetryPolicy policy(options);
  const int64_t now = 1000000;
  // Plenty of budget: 10 ms backoff fits a 100 ms deadline.
  EXPECT_EQ(policy.NextDelayUs(1, now, now + 100000), 10000);
  // The retry would wake exactly at the deadline: pointless, refuse.
  EXPECT_EQ(policy.NextDelayUs(1, now, now + 10000), -1);
  // Wakes with less than the minimum useful budget: also refuse.
  EXPECT_EQ(policy.NextDelayUs(
                1, now, now + 10000 + RetryPolicy::kMinUsefulBudgetUs),
            -1);
  // Just over the line: allowed again.
  EXPECT_EQ(policy.NextDelayUs(
                1, now, now + 10000 + RetryPolicy::kMinUsefulBudgetUs + 1),
            10000);
  // Deadline already passed.
  EXPECT_EQ(policy.NextDelayUs(1, now, now - 1), -1);
  // No deadline (0) never truncates.
  EXPECT_EQ(policy.NextDelayUs(1, now, 0), 10000);
}

// ==== HedgeTrackerTest ======================================================

TEST(HedgeTrackerTest, DisabledByDefault) {
  HedgeTracker tracker;
  EXPECT_FALSE(tracker.enabled());
  EXPECT_EQ(tracker.HedgeDelayUs(), -1);
  tracker.RecordLatencyUs(1000);
  EXPECT_EQ(tracker.HedgeDelayUs(), -1);
}

TEST(HedgeTrackerTest, FixedModeNeedsNoWarmup) {
  HedgeOptions options;
  options.hedge_fixed_us = 7500;
  HedgeTracker tracker(options);
  EXPECT_TRUE(tracker.enabled());
  EXPECT_EQ(tracker.HedgeDelayUs(), 7500);
}

TEST(HedgeTrackerTest, PercentileModeWarmsUpThenTracksTheTail) {
  HedgeOptions options;
  options.hedge_percentile = 0.90;
  options.min_samples = 10;
  HedgeTracker tracker(options);
  EXPECT_TRUE(tracker.enabled());
  // Cold: no threshold until min_samples completions have been seen.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(tracker.HedgeDelayUs(), -1) << "hedged during warmup at " << i;
    tracker.RecordLatencyUs(1000 + i);
  }
  for (int i = 9; i < 19; ++i) tracker.RecordLatencyUs(1000 + i);
  tracker.RecordLatencyUs(1000000);  // one slow outlier
  EXPECT_EQ(tracker.samples(), 20u);
  const int64_t delay = tracker.HedgeDelayUs();
  ASSERT_GE(delay, 0);
  // p90 of {1000..1018, 1000000} sits at the top of the fast cluster —
  // far below the outlier, at or above the typical latency.
  EXPECT_GE(delay, 1000);
  EXPECT_LT(delay, 1000000);
}

// ==== NetClientTest: the resilient client over real sockets =================

/// Scripted FKDN/1 server for exercising client retry paths: accepts one
/// connection at a time and hands every decoded frame (with its connection
/// fd) to the test's handler, which answers or closes as the script needs.
class ScriptedServer {
 public:
  /// Return false to close the current connection after the frame.
  using Handler = std::function<bool(int fd, const Frame& frame)>;

  explicit ScriptedServer(Handler handler) : handler_(std::move(handler)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FKD_CHECK_GE(listen_fd_, 0);
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    FKD_CHECK_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
                 0);
    FKD_CHECK_EQ(::listen(listen_fd_, 8), 0);
    socklen_t len = sizeof(addr);
    FKD_CHECK_EQ(::getsockname(listen_fd_,
                               reinterpret_cast<sockaddr*>(&addr), &len),
                 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }

  ~ScriptedServer() {
    stop_.store(true);
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    thread_.join();
    for (std::thread& conn : conn_threads_) conn.join();
  }

  int port() const { return port_; }

  static void Respond(int fd, uint64_t request_id,
                      const ClassifyResponseMsg& msg) {
    const std::string bytes = EncodeFrame(MessageType::kClassifyResponse,
                                          request_id,
                                          EncodeClassifyResponse(msg));
    size_t offset = 0;
    while (offset < bytes.size()) {
      const ssize_t n =
          ::write(fd, bytes.data() + offset, bytes.size() - offset);
      if (n <= 0) return;  // client went away; the test will notice
      offset += static_cast<size_t>(n);
    }
  }

 private:
  void Serve() {
    // One thread per connection so a deliberately stalled connection (the
    // hedge tests) cannot block the accept loop.
    while (!stop_.load()) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // listener shut down
      conn_threads_.emplace_back([this, fd] {
        FrameDecoder decoder;
        bool keep = true;
        while (keep) {
          char chunk[16 * 1024];
          const ssize_t n = ::read(fd, chunk, sizeof(chunk));
          if (n <= 0) break;
          decoder.Append(chunk, static_cast<size_t>(n));
          Frame frame;
          bool ready = false;
          while (keep && decoder.Next(&frame, &ready).ok() && ready) {
            keep = handler_(fd, frame);
          }
        }
        ::close(fd);
      });
    }
  }

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<std::thread> conn_threads_;  // only touched by thread_ + dtor
};

/// Client options tuned for tests: fast, deterministic backoff.
NetClientOptions FastClientOptions(int port) {
  NetClientOptions options;
  options.port = port;
  options.retry.backoff_base_us = 2000;
  options.retry.jitter = 0.0;
  return options;
}

TEST(NetClientTest, BlockingClassifyAgainstLiveServer) {
  auto harness = StartHarness();
  NetClient client(FastClientOptions(harness->server->bound_port()));
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = SampleText(0);
  auto result = client.Classify(msg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok);
  EXPECT_FALSE(result.value().class_name.empty());
  client.Stop();
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(NetClientTest, LostResponseTimesOutInsteadOfHangingForever) {
  // A listener that accepts the TCP connection (via the backlog) but never
  // reads or responds: the request vanishes. The client's per-request
  // budget must fire and classify the loss as DeadlineExceeded — the
  // closed-loop slot comes back instead of leaking forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(fd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  NetClientOptions options = FastClientOptions(ntohs(addr.sin_port));
  options.default_timeout_us = 200000;  // 200 ms budget
  options.retry.max_attempts = 1;       // loss, not flakiness: no retries
  NetClient client(options);
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = "into the void";
  auto result = client.Classify(msg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  client.Stop();
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.shed + stats.deadline_exceeded +
                                 stats.transport_errors + stats.other_errors);
  ::close(fd);
}

TEST(NetClientTest, RetriesUnavailableWithTheSameRequestId) {
  // The server sheds the first two attempts; the client must retry with
  // the SAME request id (idempotent resubmission) and win on the third.
  std::mutex mutex;
  std::vector<uint64_t> seen_ids;
  ScriptedServer server([&](int fd, const Frame& frame) {
    if (frame.type != MessageType::kClassifyRequest) return true;
    size_t nth = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      seen_ids.push_back(frame.request_id);
      nth = seen_ids.size();
    }
    ClassifyResponseMsg msg;
    if (nth <= 2) {
      msg.ok = false;
      msg.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
      msg.message = "shed";
    } else {
      msg.ok = true;
      msg.class_id = 1;
      msg.class_name = "fake";
    }
    ScriptedServer::Respond(fd, frame.request_id, msg);
    return true;
  });

  NetClient client(FastClientOptions(server.port()));
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = "retry me";
  auto result = client.Classify(msg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok);
  client.Stop();

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(seen_ids.size(), 3u);
  EXPECT_EQ(seen_ids[0], seen_ids[1]);
  EXPECT_EQ(seen_ids[1], seen_ids[2]);
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(NetClientTest, ExhaustedRetriesSurfaceTheFinalUnavailable) {
  ScriptedServer server([&](int fd, const Frame& frame) {
    if (frame.type != MessageType::kClassifyRequest) return true;
    ClassifyResponseMsg msg;
    msg.ok = false;
    msg.status_code = static_cast<uint8_t>(StatusCode::kUnavailable);
    msg.message = "always shedding";
    ScriptedServer::Respond(fd, frame.request_id, msg);
    return true;
  });

  NetClientOptions options = FastClientOptions(server.port());
  options.retry.max_attempts = 3;
  NetClient client(options);
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = "doomed";
  auto result = client.Classify(msg);
  // Once the policy refuses another attempt, the last shed becomes the
  // request's terminal status.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  client.Stop();
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.submitted, stats.ok + stats.shed + stats.deadline_exceeded +
                                 stats.transport_errors + stats.other_errors);
}

TEST(NetClientTest, ReconnectResendsPendingRequestWithTheSameId) {
  // Connection 1 reads the request and slams the door without answering.
  // The client must reconnect and resend the SAME id; connection 2 serves
  // it. This is the mid-stream-disconnect path of the resilience story.
  std::mutex mutex;
  std::vector<uint64_t> seen_ids;
  std::atomic<int> classify_frames{0};
  ScriptedServer server([&](int fd, const Frame& frame) {
    if (frame.type != MessageType::kClassifyRequest) return true;
    {
      std::lock_guard<std::mutex> lock(mutex);
      seen_ids.push_back(frame.request_id);
    }
    if (classify_frames.fetch_add(1) == 0) return false;  // drop conn 1
    ClassifyResponseMsg msg;
    msg.ok = true;
    msg.class_id = 0;
    msg.class_name = "true";
    ScriptedServer::Respond(fd, frame.request_id, msg);
    return true;
  });

  NetClient client(FastClientOptions(server.port()));
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = "survive the disconnect";
  auto result = client.Classify(msg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok);
  client.Stop();

  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_EQ(seen_ids.size(), 2u);
  EXPECT_EQ(seen_ids[0], seen_ids[1]);
  const NetClientStats stats = client.Stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(NetClientTest, StopFailsPendingRequestsInsteadOfLeakingThem) {
  // Nothing ever answers; Stop() must complete the outstanding request
  // with Unavailable rather than stranding its callback.
  ScriptedServer server([](int, const Frame&) { return true; });
  NetClientOptions options = FastClientOptions(server.port());
  options.default_timeout_us = 30'000'000;
  NetClient client(options);
  ASSERT_TRUE(client.Start().ok());

  std::mutex mutex;
  std::condition_variable cv;
  std::optional<Status> outcome;
  ClassifyRequestMsg msg;
  msg.text = "stranded";
  client.Submit(std::move(msg), [&](Result<ClassifyResponseMsg> result) {
    std::lock_guard<std::mutex> lock(mutex);
    outcome = result.status();
    cv.notify_all();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  client.Stop();
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                          [&] { return outcome.has_value(); }));
  EXPECT_EQ(outcome->code(), StatusCode::kUnavailable);
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.submitted, stats.ok + stats.shed + stats.deadline_exceeded +
                                 stats.transport_errors + stats.other_errors);
}

TEST(NetClientTest, FixedDelayHedgeWinsWhenThePrimaryStalls) {
  // The scripted server ignores the first copy of the request and answers
  // only the second (the hedge, arriving on a second connection).
  std::atomic<int> classify_frames{0};
  ScriptedServer server([&](int fd, const Frame& frame) {
    if (frame.type != MessageType::kClassifyRequest) return true;
    if (classify_frames.fetch_add(1) == 0) return true;  // stall, keep conn
    ClassifyResponseMsg msg;
    msg.ok = true;
    msg.class_id = 1;
    msg.class_name = "fake";
    ScriptedServer::Respond(fd, frame.request_id, msg);
    return true;
  });

  NetClientOptions options = FastClientOptions(server.port());
  options.hedge.hedge_fixed_us = 20000;  // hedge after 20 ms
  options.retry.max_attempts = 1;        // isolate hedging from retries
  NetClient client(options);
  ASSERT_TRUE(client.Start().ok());
  ClassifyRequestMsg msg;
  msg.text = "hedge me";
  auto result = client.Classify(msg);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().ok);
  client.Stop();
  const NetClientStats stats = client.Stats();
  EXPECT_EQ(stats.hedges, 1u);
  EXPECT_EQ(stats.hedge_wins, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

// ==== NetChaosTest: fault-injected socket-layer behaviour ====================

TEST(NetChaosTest, AcceptFailurePausesBrieflyThenRecovers) {
  FaultGuard guard;
  auto harness = StartHarness();
  // The first two accepts fail as if the fd table were exhausted (EMFILE).
  // The server must log-and-pause, not hot-spin, and the connection — held
  // in the listen backlog — must still be served once the pause lapses.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.accept:fail@1*2").ok());
  TestClient client(harness->server->bound_port());
  auto result = client.Classify(SampleText(0), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  FaultInjector::Global().Clear();
  const ServerStats stats = harness->server->Stats();
  EXPECT_GE(stats.accept_pauses, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
}

TEST(NetChaosTest, TornSendClosesTheConnectionWithoutBreakingAccounting) {
  FaultGuard guard;
  auto harness = StartHarness();
  TestClient victim(harness->server->bound_port());
  ASSERT_TRUE(victim.Classify(SampleText(0), 1).ok());  // healthy first

  ASSERT_TRUE(FaultInjector::Global().Configure("net.send:torn@1").ok());
  ClassifyRequestMsg msg;
  msg.text = SampleText(1);
  victim.Send(MessageType::kClassifyRequest, 2, EncodeClassifyRequest(msg));
  // The response is cut mid-frame and the connection closed: the client
  // sees a partial (undecodable) frame, never a clean response.
  std::vector<Frame> frames = victim.ReadUntilClose();
  EXPECT_TRUE(frames.empty());
  FaultInjector::Global().Clear();

  // A fresh connection is untouched, and the books still balance.
  TestClient fresh(harness->server->bound_port());
  EXPECT_TRUE(fresh.Classify(SampleText(2), 3).ok());
  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.classify_frames,
            stats.responses_ok + stats.responses_error +
                stats.responses_dropped);
}

TEST(NetChaosTest, InjectedRecvResetDropsTheConnection) {
  FaultGuard guard;
  auto harness = StartHarness();
  TestClient client(harness->server->bound_port());
  ASSERT_TRUE(client.Classify(SampleText(0), 1).ok());

  ASSERT_TRUE(FaultInjector::Global().Configure("net.recv:fail@1").ok());
  client.Send(MessageType::kPing, 2, "ping into the storm");
  // The read is treated as a connection reset: closed, no reply.
  std::vector<Frame> frames = client.ReadUntilClose();
  EXPECT_TRUE(frames.empty());
  FaultInjector::Global().Clear();

  TestClient fresh(harness->server->bound_port());
  EXPECT_TRUE(fresh.Classify(SampleText(1), 3).ok());
}

TEST(NetChaosTest, DroppedEventfdWakeupDelaysButNeverLosesACompletion) {
  FaultGuard guard;
  serve::RouterOptions router_options = FastRouterOptions();
  router_options.cache_capacity = 0;  // force the async engine path
  auto harness = StartHarness({}, router_options);
  // Drop the next two completion wakeups: the response must still go out
  // via the event loop's bounded poll timeout (liveness, not luck).
  ASSERT_TRUE(
      FaultInjector::Global().Configure("net.eventfd:fail@1*2").ok());
  TestClient client(harness->server->bound_port());
  auto result = client.Classify(SampleText(0), 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  FaultInjector::Global().Clear();
  EXPECT_EQ(harness->server->Stats().responses_ok, 1u);
}

TEST(NetChaosTest, ExpiredDeadlineIsShedAtAdmissionNeverScored) {
  // The unit-level deadline-propagation proof: a request whose absolute
  // deadline has already passed is answered DeadlineExceeded by admission
  // control and never reaches the router, let alone a scoring engine.
  FaultGuard guard;
  auto harness = StartHarness();
  const uint64_t router_submitted_before = harness->router->Stats().submitted;

  TestClient client(harness->server->bound_port());
  ClassifyRequestMsg msg;
  msg.text = SampleText(0);
  msg.deadline_unix_us = 1000;  // one millisecond past the 1970 epoch
  client.Send(MessageType::kClassifyRequest, 42, EncodeClassifyRequest(msg));
  Frame frame = client.ReadFrame();
  ASSERT_EQ(frame.type, MessageType::kClassifyResponse);
  EXPECT_EQ(frame.request_id, 42u);
  auto decoded = DecodeClassifyResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded.value().ok);
  EXPECT_EQ(decoded.value().status_code,
            static_cast<uint8_t>(StatusCode::kDeadlineExceeded));

  const ServerStats stats = harness->server->Stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.responses_error, 1u);
  // Nothing was submitted to the router: the work was shed, not computed.
  EXPECT_EQ(harness->router->Stats().submitted, router_submitted_before);

  // A live deadline on the same connection is admitted and served.
  ClassifyRequestMsg live;
  live.text = SampleText(1);
  live.deadline_unix_us = Clock::Real()->WallUs() + 5'000'000;
  client.Send(MessageType::kClassifyRequest, 43, EncodeClassifyRequest(live));
  Frame ok_frame = client.ReadFrame();
  auto ok_decoded = DecodeClassifyResponse(ok_frame.payload);
  ASSERT_TRUE(ok_decoded.ok());
  EXPECT_TRUE(ok_decoded.value().ok);
}

}  // namespace
}  // namespace net
}  // namespace fkd
