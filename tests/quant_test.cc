// Quantization + cold-tier property suite. What must hold:
//
//  1. fp16: encode/decode are pure bit manipulation — decode(encode(x)) is
//     the correctly-rounded (RNE) half value, decode is exact, and every
//     finite half survives a decode→encode round trip bit for bit;
//  2. int8: the affine grid covers [min, max], reconstruction error is
//     bounded by scale/2 (+ one float rounding), dequant→requant is
//     exactly idempotent, and edge cases (constant tensors, zeros,
//     denormals, FLT_MAX-wide ranges) neither trap nor drift;
//  3. both codecs are bitwise deterministic: element-independent math, so
//     re-encoding the same bytes — in any chunking — reproduces them;
//  4. the FKDZ cold tier round-trips losslessly, rejects every byte flip
//     through its per-block CRC-32C, and fails loudly on truncation;
//  5. the FKDW v2 container round-trips quantized tensors through the one
//     deterministic dequant path and keeps v1 fp32 files byte-stable.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/block_codec.h"
#include "common/file_io.h"
#include "common/mmap_file.h"
#include "common/rng.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "tensor/tensor.h"

namespace fkd {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& stem) {
  const std::string path =
      (fs::temp_directory_path() / (stem + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

// ---- fp16 ------------------------------------------------------------------

TEST(QuantTest, Fp16KnownValues) {
  EXPECT_EQ(nn::Fp16FromFloat(0.0f), 0x0000);
  EXPECT_EQ(nn::Fp16FromFloat(-0.0f), 0x8000);
  EXPECT_EQ(nn::Fp16FromFloat(1.0f), 0x3C00);
  EXPECT_EQ(nn::Fp16FromFloat(-2.0f), 0xC000);
  EXPECT_EQ(nn::Fp16FromFloat(65504.0f), 0x7BFF);  // largest finite half
  // Above the largest finite half: rounds to infinity.
  EXPECT_EQ(nn::Fp16FromFloat(65520.0f), 0x7C00);
  EXPECT_EQ(nn::Fp16FromFloat(1e30f), 0x7C00);
  EXPECT_EQ(nn::Fp16FromFloat(-1e30f), 0xFC00);
  // Smallest subnormal half is 2^-24.
  EXPECT_EQ(nn::Fp16FromFloat(std::ldexp(1.0f, -24)), 0x0001);
  // Half of it ties to even → zero; a hair more rounds up.
  EXPECT_EQ(nn::Fp16FromFloat(std::ldexp(1.0f, -25)), 0x0000);
  EXPECT_EQ(nn::Fp16FromFloat(std::ldexp(1.5f, -25)), 0x0001);
  // Underflow to (signed) zero.
  EXPECT_EQ(nn::Fp16FromFloat(std::ldexp(1.0f, -30)), 0x0000);
  EXPECT_EQ(nn::Fp16FromFloat(-std::ldexp(1.0f, -30)), 0x8000);
}

TEST(QuantTest, Fp16RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between half grid points 1.0 and
  // 1 + 2^-10; the tie goes to the even mantissa (1.0).
  EXPECT_EQ(nn::Fp16FromFloat(1.0f + std::ldexp(1.0f, -11)), 0x3C00);
  // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9 → even is 1+2^-9.
  EXPECT_EQ(nn::Fp16FromFloat(1.0f + 3 * std::ldexp(1.0f, -11)), 0x3C02);
  // Just past the halfway points rounds away.
  EXPECT_EQ(nn::Fp16FromFloat(1.0f + std::ldexp(1.01f, -11)), 0x3C01);
}

TEST(QuantTest, Fp16DecodeEncodeIsIdentityForEveryFiniteHalf) {
  // decode is exact (every half is a float), so encode(decode(h)) must
  // reproduce h for every non-NaN pattern — all 63490 of them, including
  // both zeros, all subnormals and both infinities.
  for (uint32_t h = 0; h <= 0xFFFF; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    const bool is_nan = (half & 0x7C00) == 0x7C00 && (half & 0x03FF) != 0;
    if (is_nan) continue;
    const float decoded = nn::Fp16ToFloat(half);
    EXPECT_EQ(nn::Fp16FromFloat(decoded), half) << "half bits 0x" << std::hex
                                                << h;
  }
}

TEST(QuantTest, Fp16NanStaysNanAndInfStaysInf) {
  EXPECT_TRUE(std::isnan(
      nn::Fp16ToFloat(nn::Fp16FromFloat(std::nanf("")))));
  EXPECT_EQ(nn::Fp16ToFloat(0x7C00), std::numeric_limits<float>::infinity());
  EXPECT_EQ(nn::Fp16ToFloat(0xFC00), -std::numeric_limits<float>::infinity());
  EXPECT_EQ(nn::Fp16FromFloat(std::numeric_limits<float>::infinity()), 0x7C00);
}

TEST(QuantTest, Fp16RoundTripErrorIsBoundedByHalfUlp) {
  Rng rng(2024);
  for (int trial = 0; trial < 20000; ++trial) {
    const float x =
        static_cast<float>(rng.Uniform(-60000.0, 60000.0));
    const float back = nn::Fp16ToFloat(nn::Fp16FromFloat(x));
    // RNE: |x - back| <= ulp_half(x) / 2. For |x| in [2^e, 2^e+1) the half
    // ulp is 2^(e-10).
    const int e = std::max(std::ilogb(std::fabs(x) == 0 ? 1.0f : std::fabs(x)),
                           -14);
    const float half_ulp = std::ldexp(1.0f, e - 11);
    EXPECT_LE(std::fabs(x - back), half_ulp) << "x=" << x;
  }
}

// ---- int8 ------------------------------------------------------------------

TEST(QuantTest, Int8GridEndpointsAreExactlyRepresentable) {
  const std::vector<float> values = {-3.5f, 0.25f, 7.75f, 1.0f};
  const nn::Int8Params params =
      nn::ChooseInt8Params(values.data(), values.size());
  EXPECT_DOUBLE_EQ(params.offset, -3.5);
  EXPECT_DOUBLE_EQ(params.scale, (7.75 + 3.5) / 255.0);
  std::vector<int8_t> q(values.size());
  nn::QuantizeInt8(values.data(), values.size(), params, q.data());
  EXPECT_EQ(q[0], -128);  // min maps to the lowest grid point
  EXPECT_EQ(q[2], 127);   // max maps to the highest
}

TEST(QuantTest, Int8MaxAbsErrorBoundedByScaleMath) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.UniformInt(uint64_t{512});
    const double lo = rng.Uniform(-100.0, 0.0);
    const double hi = rng.Uniform(0.0, 100.0);
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.Uniform(lo, hi));
    const nn::Int8Params params = nn::ChooseInt8Params(values.data(), n);
    std::vector<int8_t> q(n);
    std::vector<float> back(n);
    nn::QuantizeInt8(values.data(), n, params, q.data());
    nn::DequantizeInt8(q.data(), n, params, back.data());
    // scale/2 from rounding to the grid, plus one float narrowing of the
    // reconstructed value (≤ half its ulp, comfortably under 1e-4 here).
    const double bound = params.scale / 2 + 1e-4 * (std::fabs(lo) + hi);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_LE(std::fabs(static_cast<double>(values[i]) - back[i]), bound)
          << "element " << i << " of trial " << trial;
    }
  }
}

TEST(QuantTest, Int8DequantRequantIsExactlyIdempotent) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 64;
    std::vector<float> values(n);
    for (auto& v : values) v = static_cast<float>(rng.Normal(0.0, 3.0));
    const nn::Int8Params params = nn::ChooseInt8Params(values.data(), n);
    std::vector<int8_t> q1(n), q2(n);
    std::vector<float> d1(n), d2(n);
    nn::QuantizeInt8(values.data(), n, params, q1.data());
    nn::DequantizeInt8(q1.data(), n, params, d1.data());
    // Requantizing the dequantized floats lands on the same grid points...
    nn::QuantizeInt8(d1.data(), n, params, q2.data());
    EXPECT_EQ(std::memcmp(q1.data(), q2.data(), n), 0);
    // ...so a second dequant is bitwise identical: the lossy step happens
    // exactly once, no matter how many times a snapshot cycles through
    // the tier.
    nn::DequantizeInt8(q2.data(), n, params, d2.data());
    EXPECT_EQ(std::memcmp(d1.data(), d2.data(), n * sizeof(float)), 0);
  }
}

TEST(QuantTest, Int8ConstantTensorIsExact) {
  const std::vector<float> values(37, 1.375f);
  const nn::Int8Params params =
      nn::ChooseInt8Params(values.data(), values.size());
  EXPECT_EQ(params.scale, 0.0);
  std::vector<int8_t> q(values.size());
  std::vector<float> back(values.size());
  nn::QuantizeInt8(values.data(), values.size(), params, q.data());
  nn::DequantizeInt8(q.data(), values.size(), params, back.data());
  for (float v : back) EXPECT_EQ(v, 1.375f);  // exact, not approximate
}

TEST(QuantTest, Int8EdgeCasesZeroDenormalExtreme) {
  // All zeros: constant-tensor path, exact.
  {
    const std::vector<float> zeros(8, 0.0f);
    const auto params = nn::ChooseInt8Params(zeros.data(), zeros.size());
    std::vector<int8_t> q(8);
    std::vector<float> back(8);
    nn::QuantizeInt8(zeros.data(), 8, params, q.data());
    nn::DequantizeInt8(q.data(), 8, params, back.data());
    for (float v : back) EXPECT_EQ(v, 0.0f);
  }
  // Denormal range: scale is a tiny double, no underflow to 0/0.
  {
    const std::vector<float> tiny = {0.0f, FLT_TRUE_MIN, 8 * FLT_TRUE_MIN};
    const auto params = nn::ChooseInt8Params(tiny.data(), tiny.size());
    EXPECT_GT(params.scale, 0.0);
    std::vector<int8_t> q(tiny.size());
    std::vector<float> back(tiny.size());
    nn::QuantizeInt8(tiny.data(), tiny.size(), params, q.data());
    nn::DequantizeInt8(q.data(), tiny.size(), params, back.data());
    for (size_t i = 0; i < tiny.size(); ++i) {
      EXPECT_LE(std::fabs(back[i] - tiny[i]),
                static_cast<float>(params.scale));
    }
  }
  // FLT_MAX-wide range: the scale math runs in double, so the range
  // (2*FLT_MAX) neither overflows nor produces inf grid points.
  {
    const std::vector<float> wide = {-FLT_MAX, 0.0f, FLT_MAX};
    const auto params = nn::ChooseInt8Params(wide.data(), wide.size());
    EXPECT_TRUE(std::isfinite(params.scale));
    std::vector<int8_t> q(wide.size());
    std::vector<float> back(wide.size());
    nn::QuantizeInt8(wide.data(), wide.size(), params, q.data());
    nn::DequantizeInt8(q.data(), wide.size(), params, back.data());
    EXPECT_EQ(q[0], -128);
    EXPECT_EQ(q[2], 127);
    for (float v : back) EXPECT_TRUE(std::isfinite(v));
    EXPECT_FLOAT_EQ(back[0], -FLT_MAX);
    EXPECT_FLOAT_EQ(back[2], FLT_MAX);
  }
}

TEST(QuantTest, Int8ChunkingInvariance) {
  // Elements are independent, so quantizing in any chunking — the whole
  // span at once or split as a thread pool would — yields identical bytes.
  Rng rng(31);
  const size_t n = 1024;
  std::vector<float> values(n);
  for (auto& v : values) v = static_cast<float>(rng.Normal(0.0, 1.0));
  const nn::Int8Params params = nn::ChooseInt8Params(values.data(), n);
  std::vector<int8_t> whole(n), chunked(n);
  nn::QuantizeInt8(values.data(), n, params, whole.data());
  for (size_t start = 0, chunk = 0; start < n; start += 192, ++chunk) {
    const size_t len = std::min<size_t>(192, n - start);
    nn::QuantizeInt8(values.data() + start, len, params,
                     chunked.data() + start);
  }
  EXPECT_EQ(std::memcmp(whole.data(), chunked.data(), n), 0);
}

TEST(QuantTest, EncodedImageIsBitwiseDeterministic) {
  Rng rng(5);
  Tensor a = Tensor::Randn(17, 9, &rng);
  Tensor b = Tensor::Rand(3, 33, &rng, -4.0f, 4.0f);
  const std::vector<std::pair<std::string, const Tensor*>> tensors = {
      {"a", &a}, {"b", &b}};
  for (const auto codec :
       {nn::TensorCodec::kFp32, nn::TensorCodec::kFp16,
        nn::TensorCodec::kInt8}) {
    const std::string once = nn::EncodeTensorsImage(tensors, codec);
    const std::string twice = nn::EncodeTensorsImage(tensors, codec);
    EXPECT_EQ(once, twice) << nn::TensorCodecName(codec);
  }
}

// ---- FKDW v2 container -----------------------------------------------------

TEST(QuantTest, SaveLoadEncodedRoundTripMatchesScalarCodec) {
  const std::string dir = TestDir("fkd_quant_fkdw");
  Rng rng(11);
  Tensor weights = Tensor::Randn(40, 30, &rng);
  Tensor bias = Tensor::Rand(1, 30, &rng, -0.5f, 0.5f);
  const std::vector<std::pair<std::string, const Tensor*>> tensors = {
      {"weights", &weights}, {"bias", &bias}};
  for (const auto codec :
       {nn::TensorCodec::kFp32, nn::TensorCodec::kFp16,
        nn::TensorCodec::kInt8}) {
    const std::string path =
        dir + "/t_" + nn::TensorCodecName(codec) + ".fkdw";
    ASSERT_TRUE(nn::SaveTensorsEncoded(tensors, path, codec).ok());
    auto loaded = nn::LoadTensors(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ(loaded.value().size(), 2u);
    for (size_t i = 0; i < tensors.size(); ++i) {
      EXPECT_EQ(loaded.value()[i].first, tensors[i].first);
      // The file round trip must equal the in-memory scalar round trip
      // bit for bit: one deterministic dequant path, no second opinion.
      const Tensor expected =
          nn::RoundTripThroughCodec(*tensors[i].second, codec);
      const Tensor& got = loaded.value()[i].second;
      ASSERT_EQ(got.shape(), expected.shape());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            got.size() * sizeof(float)),
                0)
          << tensors[i].first << " via " << nn::TensorCodecName(codec);
    }
  }
  fs::remove_all(dir);
}

TEST(QuantTest, EncodedFileSizesShrinkAsAdvertised) {
  const std::string dir = TestDir("fkd_quant_sizes");
  Rng rng(13);
  Tensor big = Tensor::Randn(128, 128, &rng);
  const std::vector<std::pair<std::string, const Tensor*>> tensors = {
      {"big", &big}};
  uintmax_t sizes[3] = {0, 0, 0};
  for (const auto codec :
       {nn::TensorCodec::kFp32, nn::TensorCodec::kFp16,
        nn::TensorCodec::kInt8}) {
    const std::string path =
        dir + "/s_" + nn::TensorCodecName(codec) + ".fkdw";
    ASSERT_TRUE(nn::SaveTensorsEncoded(tensors, path, codec).ok());
    sizes[static_cast<int>(codec)] = fs::file_size(path);
  }
  EXPECT_LE(sizes[1], sizes[0] * 55 / 100);  // fp16 ≤ 55% of fp32
  EXPECT_LE(sizes[2], sizes[0] * 30 / 100);  // int8 ≤ 30% of fp32
  fs::remove_all(dir);
}

TEST(QuantTest, V1Fp32FilesStayByteStable) {
  // SaveTensors and SaveTensorsEncoded(kFp32) must write identical bytes —
  // the checkpoint bitwise-resume contract depends on the v1 layout.
  const std::string dir = TestDir("fkd_quant_v1");
  Rng rng(17);
  Tensor t = Tensor::Randn(6, 5, &rng);
  const std::vector<std::pair<std::string, const Tensor*>> tensors = {
      {"t", &t}};
  ASSERT_TRUE(nn::SaveTensors(tensors, dir + "/a.fkdw").ok());
  ASSERT_TRUE(
      nn::SaveTensorsEncoded(tensors, dir + "/b.fkdw", nn::TensorCodec::kFp32)
          .ok());
  auto a = ReadFileToString(dir + "/a.fkdw");
  auto b = ReadFileToString(dir + "/b.fkdw");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
  EXPECT_EQ(a.value(), nn::EncodeTensorsImage(tensors, nn::TensorCodec::kFp32));
  fs::remove_all(dir);
}

TEST(QuantTest, DecodeRejectsTruncationBadDtypeAndTrailingBytes) {
  Rng rng(23);
  Tensor t = Tensor::Randn(4, 4, &rng);
  const std::vector<std::pair<std::string, const Tensor*>> tensors = {
      {"t", &t}};
  const std::string image =
      nn::EncodeTensorsImage(tensors, nn::TensorCodec::kInt8);
  // Any truncation point fails loudly.
  for (size_t cut : {size_t{0}, size_t{3}, size_t{11}, image.size() - 1}) {
    auto r = nn::DecodeTensors(image.data(), cut, "truncated");
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  // Trailing garbage after the last record is corruption, not ignored.
  {
    std::string padded = image + "x";
    auto r = nn::DecodeTensors(padded.data(), padded.size(), "trailing");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  // An out-of-range dtype byte is corruption. The dtype of the first v2
  // record sits right after magic+version+count+name_len+name.
  {
    std::string bad = image;
    const size_t dtype_at = 4 + 4 + 4 + 4 + 1;
    ASSERT_EQ(static_cast<uint8_t>(bad[dtype_at]),
              static_cast<uint8_t>(nn::TensorCodec::kInt8));
    bad[dtype_at] = 0x7F;
    auto r = nn::DecodeTensors(bad.data(), bad.size(), "bad dtype");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

// ---- block codec / FKDZ ----------------------------------------------------

std::string RedundantData(size_t size) {
  std::string data;
  data.reserve(size);
  const char* phrase = "the quick brown fox jumps over the lazy dog. ";
  while (data.size() < size) data.append(phrase);
  data.resize(size);
  return data;
}

std::string RandomData(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::string data(size, '\0');
  for (auto& c : data) c = static_cast<char>(rng.UniformInt(uint64_t{256}));
  return data;
}

TEST(TierTest, LzRoundTripsCompressibleAndIncompressibleData) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kLz);
  ASSERT_NE(lz, nullptr);
  for (const std::string& input :
       {std::string(), std::string("a"), std::string("abcd"),
        RedundantData(10), RedundantData(100000), RandomData(65536, 3),
        std::string(200000, 'z')}) {
    std::string compressed;
    lz->Compress(input, &compressed);
    std::string back;
    ASSERT_TRUE(lz->Decompress(compressed, input.size(), &back).ok());
    EXPECT_EQ(back, input);
  }
}

TEST(TierTest, LzActuallyCompressesRedundantData) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kLz);
  const std::string input = RedundantData(64 * 1024);
  std::string compressed;
  lz->Compress(input, &compressed);
  EXPECT_LT(compressed.size(), input.size() / 2);
}

TEST(TierTest, LzCompressionIsDeterministic) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kLz);
  const std::string input = RedundantData(50000) + RandomData(5000, 9);
  std::string once, twice;
  lz->Compress(input, &once);
  lz->Compress(input, &twice);
  EXPECT_EQ(once, twice);
}

TEST(TierTest, LzDecompressRejectsGarbage) {
  const BlockCodec* lz = GetBlockCodec(BlockCodecId::kLz);
  Rng rng(41);
  // Random byte soup must never crash or over-read: either it happens to
  // decode to the wrong size (Corruption) or a token is invalid
  // (Corruption). Valid-looking decodes of the exact size are
  // astronomically unlikely at this length.
  for (int trial = 0; trial < 200; ++trial) {
    const std::string garbage = RandomData(64 + rng.UniformInt(uint64_t{256}),
                                           1000 + trial);
    std::string out;
    const Status s = lz->Decompress(garbage, 1 << 16, &out);
    if (s.ok()) {
      EXPECT_EQ(out.size(), 1u << 16);
    }
  }
}

TEST(TierTest, FkdzRoundTripsAcrossSizesAndCodecs) {
  const std::string dir = TestDir("fkd_tier_fkdz");
  const size_t kBlock = 4096;
  size_t case_id = 0;
  for (const auto codec : {BlockCodecId::kRaw, BlockCodecId::kLz}) {
    for (const std::string& input :
         {std::string(), std::string("x"), RedundantData(kBlock - 1),
          RedundantData(kBlock), RedundantData(kBlock + 1),
          RedundantData(10 * kBlock + 17), RandomData(3 * kBlock, 77)}) {
      const std::string path = dir + "/f" + std::to_string(case_id++);
      ASSERT_TRUE(WriteCompressedFile(path, input, codec, kBlock).ok());
      auto back = ReadCompressedFile(path);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back.value(), input);
    }
  }
  fs::remove_all(dir);
}

TEST(TierTest, FkdzDetectsEveryByteFlip) {
  const std::string dir = TestDir("fkd_tier_flip");
  const std::string path = dir + "/blob";
  const std::string input = RedundantData(3 * 4096 + 100);
  ASSERT_TRUE(
      WriteCompressedFile(path, input, BlockCodecId::kLz, 4096).ok());
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  const std::string bytes = pristine.value();
  // Flip one byte at a sweep of offsets covering the header, each block
  // header and each block body; every flip must be caught (magic/version/
  // codec check or per-block CRC), never decoded into silently-wrong data.
  for (size_t at = 0; at < bytes.size();
       at += std::max<size_t>(1, bytes.size() / 64)) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x20);
    ASSERT_TRUE(WriteStringToFile(path, corrupt).ok());
    auto r = ReadCompressedFile(path);
    ASSERT_FALSE(r.ok()) << "byte flip at " << at << " went undetected";
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption) << "at " << at;
  }
  fs::remove_all(dir);
}

TEST(TierTest, FkdzDetectsTruncationAndTrailingBytes) {
  const std::string dir = TestDir("fkd_tier_trunc");
  const std::string path = dir + "/blob";
  const std::string input = RedundantData(2 * 4096 + 9);
  ASSERT_TRUE(
      WriteCompressedFile(path, input, BlockCodecId::kLz, 4096).ok());
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  const std::string bytes = pristine.value();
  for (size_t keep : {size_t{0}, size_t{4}, bytes.size() / 2,
                      bytes.size() - 1}) {
    ASSERT_TRUE(WriteStringToFile(path, bytes.substr(0, keep)).ok());
    auto r = ReadCompressedFile(path);
    ASSERT_FALSE(r.ok()) << "kept " << keep;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
  ASSERT_TRUE(WriteStringToFile(path, bytes + "zz").ok());
  auto r = ReadCompressedFile(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  fs::remove_all(dir);
}

TEST(TierTest, FkdzWritesAreDeterministic) {
  const std::string dir = TestDir("fkd_tier_det");
  const std::string input = RedundantData(100000);
  ASSERT_TRUE(
      WriteCompressedFile(dir + "/a", input, BlockCodecId::kLz).ok());
  ASSERT_TRUE(
      WriteCompressedFile(dir + "/b", input, BlockCodecId::kLz).ok());
  auto a = ReadFileToString(dir + "/a");
  auto b = ReadFileToString(dir + "/b");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
  fs::remove_all(dir);
}

// ---- mmap + accountant -----------------------------------------------------

TEST(TierTest, MappedFileExposesExactBytes) {
  const std::string dir = TestDir("fkd_tier_mmap");
  const std::string path = dir + "/data";
  const std::string content = RandomData(12345, 55);
  ASSERT_TRUE(WriteStringToFile(path, content).ok());
  auto mapped = MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().size(), content.size());
  EXPECT_EQ(mapped.value().view(), content);
  fs::remove_all(dir);
}

TEST(TierTest, MappedFileHandlesEmptyAndMissing) {
  const std::string dir = TestDir("fkd_tier_mmap2");
  const std::string empty = dir + "/empty";
  ASSERT_TRUE(WriteStringToFile(empty, "").ok());
  auto mapped = MappedFile::Open(empty);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value().size(), 0u);
  EXPECT_TRUE(mapped.value().is_open());

  auto missing = MappedFile::Open(dir + "/nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fkd
