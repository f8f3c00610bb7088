#include "nn/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>

#include "common/file_io.h"
#include "common/mmap_file.h"
#include "common/string_util.h"

namespace fkd {
namespace nn {

namespace {

constexpr uint32_t kMagic = 0x464B4457;  // "FKDW"
constexpr uint32_t kVersion = 1;           // fp32-only records
constexpr uint32_t kVersionEncoded = 2;    // records carry a dtype byte
constexpr uint64_t kMaxElements = 1ull << 36;

std::string ShapeString(const std::vector<size_t>& shape) {
  std::string out = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += " x ";
    out += std::to_string(shape[i]);
  }
  out += "]";
  return out;
}

template <typename T>
void AppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked cursor over an in-memory FKDW image.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : cursor_(static_cast<const uint8_t*>(data)), remaining_(size) {}

  bool Read(void* out, size_t n) {
    if (n > remaining_) return false;
    std::memcpy(out, cursor_, n);
    cursor_ += n;
    remaining_ -= n;
    return true;
  }

  template <typename T>
  bool ReadPod(T* value) {
    return Read(value, sizeof(T));
  }

  /// Borrows `n` bytes from the image without copying (valid while the
  /// image is). Null when out of bounds.
  const uint8_t* Borrow(size_t n) {
    if (n > remaining_) return nullptr;
    const uint8_t* at = cursor_;
    cursor_ += n;
    remaining_ -= n;
    return at;
  }

  size_t remaining() const { return remaining_; }

 private:
  const uint8_t* cursor_;
  size_t remaining_;
};

/// Header chunk followed by one chunk per tensor — the byte layout of the
/// file; writers append chunk by chunk (fault-injectable record
/// boundaries), the image builder concatenates them.
std::vector<std::string> BuildChunks(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    TensorCodec codec) {
  std::vector<std::string> chunks;
  chunks.reserve(tensors.size() + 1);
  std::string header;
  AppendPod(&header, kMagic);
  AppendPod(&header,
            codec == TensorCodec::kFp32 ? kVersion : kVersionEncoded);
  AppendPod(&header, static_cast<uint32_t>(tensors.size()));
  chunks.push_back(std::move(header));
  for (const auto& [name, tensor] : tensors) {
    FKD_CHECK(tensor != nullptr);
    std::string record;
    AppendPod(&record, static_cast<uint32_t>(name.size()));
    record.append(name);
    if (codec != TensorCodec::kFp32) {
      AppendPod(&record, static_cast<uint8_t>(codec));
    }
    AppendPod(&record, static_cast<uint32_t>(tensor->rank()));
    for (size_t dim : tensor->shape()) {
      AppendPod(&record, static_cast<uint64_t>(dim));
    }
    const size_t count = tensor->size();
    const float* values = tensor->data();
    switch (codec) {
      case TensorCodec::kFp32:
        record.append(reinterpret_cast<const char*>(values),
                      count * sizeof(float));
        break;
      case TensorCodec::kFp16:
        for (size_t i = 0; i < count; ++i) {
          AppendPod(&record, Fp16FromFloat(values[i]));
        }
        break;
      case TensorCodec::kInt8: {
        const Int8Params params = ChooseInt8Params(values, count);
        AppendPod(&record, params.scale);
        AppendPod(&record, params.offset);
        std::vector<int8_t> quantized(count);
        QuantizeInt8(values, count, params, quantized.data());
        record.append(reinterpret_cast<const char*>(quantized.data()), count);
        break;
      }
    }
    chunks.push_back(std::move(record));
  }
  return chunks;
}

}  // namespace

Status SaveTensors(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    const std::string& path) {
  return SaveTensorsEncoded(tensors, path, TensorCodec::kFp32);
}

Status SaveTensorsEncoded(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    const std::string& path, TensorCodec codec) {
  // One fault-injectable, fsynced write per record through the durable file
  // shim: the header first, then each tensor, so crash/ENOSPC tests can
  // target any point of the weight file. kFp32 emits the v1 layout
  // byte-identically to every earlier release.
  FKD_ASSIGN_OR_RETURN(FileWriter out, FileWriter::Open(path));
  for (const std::string& chunk : BuildChunks(tensors, codec)) {
    FKD_RETURN_NOT_OK(out.Append(chunk));
  }
  return out.Close();
}

std::string EncodeTensorsImage(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    TensorCodec codec) {
  std::string image;
  for (const std::string& chunk : BuildChunks(tensors, codec)) {
    image.append(chunk);
  }
  return image;
}

Status SaveParameters(const Module& module, const std::string& path) {
  return SaveParametersEncoded(module, path, TensorCodec::kFp32);
}

Status SaveParametersEncoded(const Module& module, const std::string& path,
                             TensorCodec codec) {
  std::vector<NamedParameter> params;
  module.CollectParameters("", &params);
  std::vector<std::pair<std::string, const Tensor*>> tensors;
  tensors.reserve(params.size());
  for (const auto& p : params) tensors.emplace_back(p.name, &p.variable.value());
  return SaveTensorsEncoded(tensors, path, codec);
}

Result<std::vector<std::pair<std::string, Tensor>>> DecodeTensors(
    const void* data, size_t size, const std::string& origin) {
  ByteReader in(data, size);
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t count = 0;
  if (!in.ReadPod(&magic) || magic != kMagic) {
    return Status::Corruption("bad magic in " + origin);
  }
  if (!in.ReadPod(&version) ||
      (version != kVersion && version != kVersionEncoded)) {
    return Status::Corruption(StrFormat("unsupported version %u", version));
  }
  if (!in.ReadPod(&count)) return Status::Corruption("truncated header");

  std::vector<std::pair<std::string, Tensor>> records;
  std::map<std::string, size_t> seen;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t name_len = 0;
    if (!in.ReadPod(&name_len) || name_len > (1u << 20)) {
      return Status::Corruption("bad parameter name length");
    }
    std::string name(name_len, '\0');
    if (!in.Read(name.data(), name_len)) {
      return Status::Corruption("truncated parameter name");
    }
    TensorCodec codec = TensorCodec::kFp32;
    if (version == kVersionEncoded) {
      uint8_t dtype = 0;
      if (!in.ReadPod(&dtype) ||
          dtype > static_cast<uint8_t>(TensorCodec::kInt8)) {
        return Status::Corruption("bad dtype for " + name);
      }
      codec = static_cast<TensorCodec>(dtype);
    }
    uint32_t rank = 0;
    if (!in.ReadPod(&rank) || rank > 8) {
      return Status::Corruption("bad parameter rank for " + name);
    }
    std::vector<size_t> shape(rank);
    uint64_t total = rank == 0 ? 0 : 1;
    for (uint32_t d = 0; d < rank; ++d) {
      uint64_t dim = 0;
      if (!in.ReadPod(&dim) || dim > (1ull << 32)) {
        return Status::Corruption("bad dimension for " + name);
      }
      if (dim != 0 && total > kMaxElements / dim) {
        return Status::Corruption("oversized tensor " + name);
      }
      shape[d] = static_cast<size_t>(dim);
      total *= dim;
    }
    const size_t elements = static_cast<size_t>(total);
    Tensor t(shape);
    switch (codec) {
      case TensorCodec::kFp32: {
        if (!in.Read(t.data(), elements * sizeof(float))) {
          return Status::Corruption("truncated data for " + name);
        }
        break;
      }
      case TensorCodec::kFp16: {
        const uint8_t* halves = in.Borrow(elements * sizeof(uint16_t));
        if (halves == nullptr) {
          return Status::Corruption("truncated fp16 data for " + name);
        }
        float* out = t.data();
        for (size_t e = 0; e < elements; ++e) {
          uint16_t h;
          std::memcpy(&h, halves + e * sizeof(uint16_t), sizeof(h));
          out[e] = Fp16ToFloat(h);
        }
        break;
      }
      case TensorCodec::kInt8: {
        Int8Params params;
        if (!in.ReadPod(&params.scale) || !in.ReadPod(&params.offset)) {
          return Status::Corruption("truncated int8 params for " + name);
        }
        if (!(params.scale >= 0.0) || !std::isfinite(params.scale) ||
            !std::isfinite(params.offset)) {
          return Status::Corruption("invalid int8 params for " + name);
        }
        const uint8_t* bytes = in.Borrow(elements);
        if (bytes == nullptr) {
          return Status::Corruption("truncated int8 data for " + name);
        }
        DequantizeInt8(reinterpret_cast<const int8_t*>(bytes), elements,
                       params, t.data());
        break;
      }
    }
    if (!seen.emplace(name, i).second) {
      return Status::Corruption("duplicate parameter " + name);
    }
    records.emplace_back(std::move(name), std::move(t));
  }
  // Anything after the declared records is not ours: flag the trailing
  // garbage instead of silently ignoring a half-overwritten file.
  if (in.remaining() != 0) {
    return Status::Corruption("trailing bytes after last record in " + origin);
  }
  return records;
}

Result<std::vector<std::pair<std::string, Tensor>>> LoadTensors(
    const std::string& path) {
  // Weight files are parsed out of an mmap'd view rather than a heap
  // buffer: loads read straight from the page cache and never
  // double-buffer the file.
  FKD_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  return DecodeTensors(file.data(), file.size(), path);
}

namespace {

Status ApplyRecords(Module* module,
                    std::vector<std::pair<std::string, Tensor>> records,
                    const std::string& path) {
  std::map<std::string, Tensor> loaded;
  for (auto& [name, tensor] : records) {
    loaded.emplace(std::move(name), std::move(tensor));
  }

  std::vector<NamedParameter> params;
  module->CollectParameters("", &params);
  if (params.size() != loaded.size()) {
    // Name the first parameter present on only one side so the caller can
    // see *which* architecture drifted, not just that the counts differ.
    std::string detail;
    for (const auto& p : params) {
      if (loaded.count(p.name) == 0) {
        detail = "; module parameter '" + p.name + "' is not in the file";
        break;
      }
    }
    if (detail.empty()) {
      std::map<std::string, Tensor> extra = loaded;
      for (const auto& p : params) extra.erase(p.name);
      if (!extra.empty()) {
        detail = "; file parameter '" + extra.begin()->first +
                 "' is not in the module";
      }
    }
    return Status::InvalidArgument(
        StrFormat("parameter count mismatch loading %s: module has %zu, "
                  "file has %zu%s",
                  path.c_str(), params.size(), loaded.size(), detail.c_str()));
  }
  for (auto& p : params) {
    auto it = loaded.find(p.name);
    if (it == loaded.end()) {
      return Status::InvalidArgument(
          StrFormat("%s is missing parameter '%s' expected by the module",
                    path.c_str(), p.name.c_str()));
    }
    if (it->second.shape() != p.variable.value().shape()) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for parameter '%s': module expects %s, %s has %s",
          p.name.c_str(), ShapeString(p.variable.value().shape()).c_str(),
          path.c_str(), ShapeString(it->second.shape()).c_str()));
    }
    p.variable.mutable_value() = it->second;
  }
  return Status::OK();
}

}  // namespace

Status LoadParameters(Module* module, const std::string& path) {
  FKD_CHECK(module != nullptr);
  FKD_ASSIGN_OR_RETURN(auto records, LoadTensors(path));
  return ApplyRecords(module, std::move(records), path);
}

Status LoadParametersFromImage(Module* module, const void* data, size_t size,
                               const std::string& origin) {
  FKD_CHECK(module != nullptr);
  FKD_ASSIGN_OR_RETURN(auto records, DecodeTensors(data, size, origin));
  return ApplyRecords(module, std::move(records), origin);
}

}  // namespace nn
}  // namespace fkd
