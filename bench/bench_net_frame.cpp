// Microbenchmarks of the FKDN/1 wire codec: frame encode (header + double
// CRC-32C), streaming decode through FrameDecoder in socket-sized chunks,
// and the classify request/response message codecs. These bound the
// per-request protocol overhead of the network front end; the serving
// benchmark (perfbench/) reports the same cost per request as net.codec_ns.

#include <benchmark/benchmark.h>

#include <string>

#include "net/wire.h"

namespace {

using fkd::net::ClassifyRequestMsg;
using fkd::net::ClassifyResponseMsg;
using fkd::net::Frame;
using fkd::net::FrameDecoder;
using fkd::net::MessageType;

void BM_EncodeFrame(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fkd::net::EncodeFrame(MessageType::kClassifyRequest, 42, payload));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(payload.size() + fkd::net::kHeaderSize));
}
BENCHMARK(BM_EncodeFrame)->Arg(64)->Arg(1024)->Arg(16384);

/// Streaming decode: many frames in one buffer, fed in 16 KiB chunks the
/// way the server's read loop sees them.
void BM_DecodeStream(benchmark::State& state) {
  const std::string payload(static_cast<size_t>(state.range(0)), 'x');
  std::string stream;
  constexpr size_t kFrames = 64;
  for (size_t i = 0; i < kFrames; ++i) {
    stream += fkd::net::EncodeFrame(MessageType::kClassifyRequest, i, payload);
  }
  for (auto _ : state) {
    FrameDecoder decoder;
    size_t decoded = 0;
    for (size_t off = 0; off < stream.size(); off += 16384) {
      decoder.Append(stream.data() + off,
                     std::min<size_t>(16384, stream.size() - off));
      for (;;) {
        Frame frame;
        bool ready = false;
        if (!decoder.Next(&frame, &ready).ok() || !ready) break;
        ++decoded;
      }
    }
    if (decoded != kFrames) state.SkipWithError("decode mismatch");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_DecodeStream)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ClassifyRequestCodec(benchmark::State& state) {
  ClassifyRequestMsg msg;
  msg.text = std::string(static_cast<size_t>(state.range(0)), 'a');
  msg.creator_id = 7;
  msg.subject_ids = {1, 2, 3};
  for (auto _ : state) {
    const std::string payload = fkd::net::EncodeClassifyRequest(msg);
    auto decoded = fkd::net::DecodeClassifyRequest(payload);
    if (!decoded.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ClassifyRequestCodec)->Arg(256)->Arg(4096);

void BM_ClassifyResponseCodec(benchmark::State& state) {
  ClassifyResponseMsg msg;
  msg.ok = true;
  msg.class_id = 1;
  msg.class_name = "fake";
  msg.probabilities = {0.2f, 0.8f};
  msg.model_version = 3;
  msg.total_us = 412.5;
  for (auto _ : state) {
    const std::string payload = fkd::net::EncodeClassifyResponse(msg);
    auto decoded = fkd::net::DecodeClassifyResponse(payload);
    if (!decoded.ok()) state.SkipWithError("decode failed");
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_ClassifyResponseCodec);

}  // namespace

BENCHMARK_MAIN();
