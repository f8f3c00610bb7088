#ifndef FKD_SERVE_SNAPSHOT_H_
#define FKD_SERVE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/block_codec.h"
#include "common/status.h"
#include "core/diffusion_model.h"
#include "core/fake_detector.h"
#include "eval/classifier.h"
#include "nn/quantize.h"
#include "tensor/tensor.h"

namespace fkd {
namespace serve {

/// A frozen, servable FakeDetector: everything needed to go from raw
/// article text to class probabilities, reloaded from one snapshot
/// directory. Immutable after LoadSnapshot; all scoring members are const
/// and safe to call concurrently from any number of threads (the model
/// forward is tape-free and the vocabularies are lookup-only).
struct Snapshot {
  /// Architecture configuration the model was rebuilt from (training
  /// hyper-parameters are carried along but unused at serve time).
  core::FakeDetectorConfig config;
  size_t num_classes = 0;
  eval::LabelGranularity granularity = eval::LabelGranularity::kBinary;
  /// Display name per class id, e.g. {"not credible", "credible"}.
  std::vector<std::string> class_names;

  /// The rebuilt parameter tree.
  std::unique_ptr<core::DiffusionModel> model;

  /// Frozen hidden states of the training corpus after the K diffusion
  /// steps: [num_creators x gdu_hidden] / [num_subjects x gdu_hidden].
  /// New articles aggregate these through their creator/subject links.
  Tensor creator_states;
  Tensor subject_states;

  /// Checks that the optional graph context of a request points at rows of
  /// the frozen state matrices. `creator_id` < 0 means "unknown creator".
  Status ValidateIds(int32_t creator_id,
                     const std::vector<int32_t>& subject_ids) const;

  /// Scores a batch of raw article texts: tokenises with the modelling
  /// conventions, featurises against the frozen vocabularies, and runs the
  /// tape-free batched forward. `creator_ids[i]` < 0 and an empty
  /// `subject_ids[i]` degrade to the paper's all-zero missing GDU ports.
  /// Returns raw logits [n x num_classes]. Ids must have been validated.
  Tensor Score(const std::vector<std::string>& texts,
               const std::vector<int32_t>& creator_ids,
               const std::vector<std::vector<int32_t>>& subject_ids) const;

  /// Deterministic estimate of this snapshot's heap footprint once loaded:
  /// parameter and state tensors exactly, vocabularies and label names by
  /// a fixed per-entry model. A pure function of the snapshot's content;
  /// the model store sums it into fkd.store.resident_bytes.
  size_t ResidentBytes() const;
};

/// Knobs of an export. The defaults reproduce the legacy layout exactly
/// (fp32 FKDW v1 weights, plain-text cold artifacts).
struct SnapshotOptions {
  /// Encoding of weights.fkdw AND states: kFp16/kInt8 write FKDW v2
  /// records dequantised on load through one deterministic path.
  nn::TensorCodec weights_codec = nn::TensorCodec::kFp32;
  /// kRaw keeps the frozen states and vocab TSVs as plain files; any other
  /// codec wraps them into per-block-CRC'd FKDZ containers (*.fkdz).
  BlockCodecId cold_codec = BlockCodecId::kRaw;
};

/// Freezes a trained detector into `directory`: architecture config +
/// label map (config.txt, labels.txt), the six vocabularies (*.tsv), the
/// parameters (weights.fkdw via nn::SaveParameters), the frozen diffusion
/// states (states.fkdw) and a MANIFEST recording every file's size and
/// CRC-32C. Crash-safe: everything is written and fsynced in a staging
/// directory that one atomic rename publishes at the end, so a crash at
/// any step leaves either the previous snapshot or nothing — never a
/// half-written directory. Fails with FailedPrecondition if the detector
/// was not trained.
Status ExportSnapshot(const core::FakeDetector& detector,
                      const std::string& directory);

/// ExportSnapshot with explicit weight/cold-tier encodings. config.txt
/// records both codecs so LoadSnapshot routes each artifact through the
/// matching decoder; the MANIFEST covers the encoded artifacts, so
/// corruption of a quantized or compressed file fails the same loud way.
Status ExportSnapshot(const core::FakeDetector& detector,
                      const std::string& directory,
                      const SnapshotOptions& options);

/// Rebuilds a servable model from an ExportSnapshot directory. The
/// MANIFEST is verified (existence, size, CRC-32C of every artifact)
/// before anything is parsed — a torn or bit-rotted snapshot fails with
/// Corruption up front. The parameter shapes are then re-derived from the
/// persisted config and vocabularies, so LoadParameters catches any drift
/// by name and shape.
Result<Snapshot> LoadSnapshot(const std::string& directory);

}  // namespace serve
}  // namespace fkd

#endif  // FKD_SERVE_SNAPSHOT_H_
