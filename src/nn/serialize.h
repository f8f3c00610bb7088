#ifndef FKD_NN_SERIALIZE_H_
#define FKD_NN_SERIALIZE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "nn/module.h"
#include "nn/quantize.h"

namespace fkd {
namespace nn {

/// Writes all parameters of `module` to `path` in the FKDW binary format
/// (magic, version, then name/shape/float32-data records).
Status SaveParameters(const Module& module, const std::string& path);

/// Restores parameters saved by SaveParameters into `module` (matched by
/// name; shapes must agree exactly). Missing or extra names are errors so
/// that silent architecture drift is caught.
Status LoadParameters(Module* module, const std::string& path);

/// Writes an ordered list of named tensors in the same FKDW format —
/// the raw-tensor flavour checkpoints use for optimizer slots and kept
/// best-epoch weights, where there is no Module to collect from. Pointers
/// must be non-null; names should be unique (LoadTensors rejects dupes).
Status SaveTensors(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    const std::string& path);

/// SaveTensors with an explicit weight encoding. kFp32 delegates to the
/// v1 writer (byte-identical to SaveTensors, preserving the checkpoint
/// bitwise contract); kFp16/kInt8 write FKDW v2 records carrying a dtype
/// byte and the encoded payload (int8 records embed their double
/// scale/offset). Encoding is element-independent and therefore identical
/// at any thread count.
Status SaveTensorsEncoded(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    const std::string& path, TensorCodec codec);

/// SaveParameters with an explicit weight encoding (see SaveTensorsEncoded).
Status SaveParametersEncoded(const Module& module, const std::string& path,
                             TensorCodec codec);

/// Reads back every record of an FKDW file in file order, shapes taken
/// from the file itself. Accepts v1 (fp32) and v2 (dtype-tagged) files;
/// quantized records are dequantised through the single deterministic
/// fp16/int8 decode path, so the returned tensors are always fp32 and a
/// pure function of the file bytes. The file is memory-mapped, not
/// buffered — loads parse straight from the page cache.
/// Corruption on any malformed or truncated record.
Result<std::vector<std::pair<std::string, Tensor>>> LoadTensors(
    const std::string& path);

/// LoadTensors from an in-memory FKDW image (a mapped file, a decompressed
/// cold-tier block). `origin` labels error messages.
Result<std::vector<std::pair<std::string, Tensor>>> DecodeTensors(
    const void* data, size_t size, const std::string& origin);

/// Builds in memory exactly the bytes SaveTensorsEncoded would write —
/// the input the compressed cold tier wraps into an FKDZ container.
std::string EncodeTensorsImage(
    const std::vector<std::pair<std::string, const Tensor*>>& tensors,
    TensorCodec codec);

/// LoadParameters from an in-memory FKDW image (same matching rules).
Status LoadParametersFromImage(Module* module, const void* data, size_t size,
                               const std::string& origin);

}  // namespace nn
}  // namespace fkd

#endif  // FKD_NN_SERIALIZE_H_
