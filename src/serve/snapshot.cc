#include "serve/snapshot.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "common/file_io.h"
#include "common/manifest.h"
#include "common/string_util.h"
#include "data/labels.h"
#include "nn/serialize.h"
#include "text/features.h"

namespace fkd {
namespace serve {

namespace {

constexpr uint64_t kFormatVersion = 1;

constexpr const char* kConfigFile = "config.txt";
constexpr const char* kLabelsFile = "labels.txt";
constexpr const char* kWeightsFile = "weights.fkdw";
constexpr const char* kStatesFile = "states.fkdw";

/// Cold-tier artifacts (states + vocabularies) gain this suffix when the
/// snapshot is exported with a compressing cold codec.
constexpr const char* kCompressedSuffix = ".fkdz";

std::string ColdFileName(const char* base, BlockCodecId cold_codec) {
  std::string name = base;
  if (cold_codec != BlockCodecId::kRaw) name += kCompressedSuffix;
  return name;
}

/// The six vocabulary files, in the DiffusionModel constructor's order.
const char* const kVocabularyFiles[] = {
    "article_words.tsv", "creator_words.tsv", "subject_words.tsv",
    "article_latent.tsv", "creator_latent.tsv", "subject_latent.tsv",
};

/// Adapter exposing the frozen diffusion states to the FKDW parameter
/// (de)serialiser — reusing its magic/shape/name validation for free.
struct FrozenStates : nn::Module {
  autograd::Variable creators;
  autograd::Variable subjects;

  FrozenStates(Tensor creator_states, Tensor subject_states)
      : creators(std::move(creator_states), false, "creator_states"),
        subjects(std::move(subject_states), false, "subject_states") {}

  void CollectParameters(const std::string& prefix,
                         std::vector<nn::NamedParameter>* out) const override {
    out->push_back({nn::JoinName(prefix, "creator_states"), creators});
    out->push_back({nn::JoinName(prefix, "subject_states"), subjects});
  }
};

std::string GranularityName(eval::LabelGranularity granularity) {
  return granularity == eval::LabelGranularity::kBinary ? "binary" : "multi";
}

std::vector<std::string> ClassNames(eval::LabelGranularity granularity) {
  if (granularity == eval::LabelGranularity::kBinary) {
    return {"not credible", "credible"};  // BiClassOf: 1 = credible group.
  }
  std::vector<std::string> names;
  for (size_t id = 0; id < data::kNumCredibilityClasses; ++id) {
    names.emplace_back(
        data::LabelName(static_cast<data::CredibilityLabel>(id)));
  }
  return names;
}

Status WriteConfig(const core::FakeDetector& detector,
                   const SnapshotOptions& options, const std::string& path) {
  std::ostringstream out;
  const core::FakeDetectorConfig& c = detector.config();
  out << "format_version=" << kFormatVersion << '\n'
      << "weights_codec=" << nn::TensorCodecName(options.weights_codec) << '\n'
      << "cold_codec=" << GetBlockCodec(options.cold_codec)->name() << '\n'
      << "num_classes=" << detector.model()->num_classes() << '\n'
      << "granularity=" << GranularityName(detector.granularity()) << '\n'
      << "hflu.embed_dim=" << c.hflu.embed_dim << '\n'
      << "hflu.gru_hidden=" << c.hflu.gru_hidden << '\n'
      << "hflu.latent_dim=" << c.hflu.latent_dim << '\n'
      << "hflu.max_sequence_length=" << c.hflu.max_sequence_length << '\n'
      << "hflu.cell=" << nn::RnnCellKindName(c.hflu.cell) << '\n'
      << "hflu.use_explicit=" << (c.hflu.use_explicit ? 1 : 0) << '\n'
      << "hflu.use_latent=" << (c.hflu.use_latent ? 1 : 0) << '\n'
      << "explicit_words=" << c.explicit_words << '\n'
      << "latent_vocabulary=" << c.latent_vocabulary << '\n'
      << "gdu_hidden=" << c.gdu_hidden << '\n'
      << "diffusion_steps=" << c.diffusion_steps << '\n'
      << "gdu.disable_forget_gate=" << (c.gdu.disable_forget_gate ? 1 : 0)
      << '\n'
      << "gdu.disable_adjust_gate=" << (c.gdu.disable_adjust_gate ? 1 : 0)
      << '\n'
      << "gdu.plain_unit=" << (c.gdu.plain_unit ? 1 : 0) << '\n'
      << "num_creators=" << detector.frozen_creator_states().rows() << '\n'
      << "num_subjects=" << detector.frozen_subject_states().rows() << '\n';
  return WriteStringToFile(path, out.str());
}

/// Parsed key=value view of config.txt with typed, validated accessors.
class ConfigReader {
 public:
  static Result<ConfigReader> Read(const std::string& path) {
    std::ifstream in(path);
    if (!in) return Status::IoError("cannot open for reading: " + path);
    ConfigReader reader;
    reader.path_ = path;
    std::string line;
    size_t line_number = 0;
    while (std::getline(in, line)) {
      ++line_number;
      if (line.empty()) continue;
      const size_t eq = line.find('=');
      if (eq == std::string::npos || eq == 0) {
        return Status::Corruption(
            StrFormat("%s:%zu: expected key=value", path.c_str(), line_number));
      }
      std::string key = line.substr(0, eq);
      // Duplicate keys would make last-wins pick a value silently; a config
      // with two opinions about the same knob is corrupt, not ambiguous.
      if (reader.values_.count(key) != 0) {
        return Status::Corruption(StrFormat("%s:%zu: duplicate key '%s'",
                                            path.c_str(), line_number,
                                            key.c_str()));
      }
      reader.values_.emplace(std::move(key), line.substr(eq + 1));
    }
    return reader;
  }

  Status GetUint(const std::string& key, size_t* out) const {
    std::string raw;
    FKD_RETURN_NOT_OK(GetRaw(key, &raw));
    uint64_t value = 0;
    if (!ParseUint64(raw, &value)) {
      return Status::Corruption(StrFormat("%s: bad value '%s' for key %s",
                                          path_.c_str(), raw.c_str(),
                                          key.c_str()));
    }
    *out = static_cast<size_t>(value);
    return Status::OK();
  }

  Status GetBool(const std::string& key, bool* out) const {
    size_t value = 0;
    FKD_RETURN_NOT_OK(GetUint(key, &value));
    if (value > 1) {
      return Status::Corruption(
          StrFormat("%s: key %s must be 0 or 1", path_.c_str(), key.c_str()));
    }
    *out = value == 1;
    return Status::OK();
  }

  Status GetRaw(const std::string& key, std::string* out) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      return Status::Corruption(
          StrFormat("%s: missing key %s", path_.c_str(), key.c_str()));
    }
    *out = it->second;
    return Status::OK();
  }

  /// Optional keys (codec hints absent from pre-quantization snapshots).
  std::string GetOr(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

 private:
  std::string path_;
  std::map<std::string, std::string> values_;
};

}  // namespace

Status Snapshot::ValidateIds(int32_t creator_id,
                             const std::vector<int32_t>& subject_ids) const {
  if (creator_id >= 0 &&
      static_cast<size_t>(creator_id) >= creator_states.rows()) {
    return Status::InvalidArgument(
        StrFormat("creator id %d outside the snapshot's %zu creators",
                  creator_id, creator_states.rows()));
  }
  for (int32_t id : subject_ids) {
    if (id < 0 || static_cast<size_t>(id) >= subject_states.rows()) {
      return Status::InvalidArgument(
          StrFormat("subject id %d outside the snapshot's %zu subjects", id,
                    subject_states.rows()));
    }
  }
  return Status::OK();
}

Tensor Snapshot::Score(
    const std::vector<std::string>& texts,
    const std::vector<int32_t>& creator_ids,
    const std::vector<std::vector<int32_t>>& subject_ids) const {
  FKD_CHECK(model != nullptr);
  FKD_CHECK_EQ(creator_ids.size(), texts.size());
  FKD_CHECK_EQ(subject_ids.size(), texts.size());
  const auto documents = text::TokenizeDocuments(texts);
  const core::HfluInput input = model->article_hflu().PrepareBatch(documents);
  std::vector<std::vector<int32_t>> creator_groups(texts.size());
  for (size_t i = 0; i < creator_ids.size(); ++i) {
    if (creator_ids[i] >= 0) creator_groups[i] = {creator_ids[i]};
  }
  return model->ScoreArticles(input, subject_ids, creator_groups,
                              creator_states, subject_states);
}

Status ExportSnapshot(const core::FakeDetector& detector,
                      const std::string& directory) {
  return ExportSnapshot(detector, directory, SnapshotOptions());
}

Status ExportSnapshot(const core::FakeDetector& detector,
                      const std::string& directory,
                      const SnapshotOptions& options) {
  if (detector.model() == nullptr) {
    return Status::FailedPrecondition(
        "ExportSnapshot needs a trained FakeDetector");
  }
  const core::DiffusionModel& model = *detector.model();
  if (GetBlockCodec(options.cold_codec) == nullptr) {
    return Status::InvalidArgument("unregistered cold codec id");
  }
  // Crash-safe export: every file is written (and fsynced) into a staging
  // directory, the MANIFEST covering all of them goes last, and only then
  // does one atomic rename publish the snapshot. A crash at any earlier
  // step leaves nothing under `directory` for LoadSnapshot to find.
  std::error_code ec;
  const std::string parent =
      std::filesystem::path(directory).parent_path().string();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  FKD_ASSIGN_OR_RETURN(StagedDir staged, StagedDir::Create(directory));
  const std::filesystem::path dir(staged.path());

  FKD_RETURN_NOT_OK(WriteConfig(detector, options,
                                (dir / kConfigFile).string()));

  {
    std::string labels;
    for (const auto& name : ClassNames(detector.granularity())) {
      labels += name;
      labels += '\n';
    }
    FKD_RETURN_NOT_OK(WriteStringToFile((dir / kLabelsFile).string(), labels));
  }

  const text::Vocabulary* vocabularies[] = {
      &model.article_hflu().word_set(),
      &model.creator_hflu().word_set(),
      &model.subject_hflu().word_set(),
      &model.article_hflu().latent_vocabulary(),
      &model.creator_hflu().latent_vocabulary(),
      &model.subject_hflu().latent_vocabulary(),
  };
  for (size_t i = 0; i < std::size(kVocabularyFiles); ++i) {
    const std::string name = ColdFileName(kVocabularyFiles[i],
                                          options.cold_codec);
    if (options.cold_codec == BlockCodecId::kRaw) {
      FKD_RETURN_NOT_OK(vocabularies[i]->Save((dir / name).string()));
    } else {
      FKD_RETURN_NOT_OK(WriteCompressedFile(
          (dir / name).string(), vocabularies[i]->SerializeToString(),
          options.cold_codec));
    }
  }

  FKD_RETURN_NOT_OK(nn::SaveParametersEncoded(
      model, (dir / kWeightsFile).string(), options.weights_codec));

  const std::vector<std::pair<std::string, const Tensor*>> state_tensors = {
      {"creator_states", &detector.frozen_creator_states()},
      {"subject_states", &detector.frozen_subject_states()},
  };
  const std::string states_name = ColdFileName(kStatesFile,
                                               options.cold_codec);
  if (options.cold_codec == BlockCodecId::kRaw) {
    FKD_RETURN_NOT_OK(nn::SaveTensorsEncoded(
        state_tensors, (dir / states_name).string(), options.weights_codec));
  } else {
    FKD_RETURN_NOT_OK(WriteCompressedFile(
        (dir / states_name).string(),
        nn::EncodeTensorsImage(state_tensors, options.weights_codec),
        options.cold_codec));
  }

  std::vector<std::string> files = {kConfigFile, kLabelsFile, kWeightsFile,
                                    states_name};
  for (const char* file : kVocabularyFiles) {
    files.push_back(ColdFileName(file, options.cold_codec));
  }
  FKD_RETURN_NOT_OK(WriteManifest(staged.path(), files));
  return staged.Commit();
}

Result<Snapshot> LoadSnapshot(const std::string& directory) {
  const std::filesystem::path dir(directory);
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::IoError("snapshot directory does not exist: " + directory);
  }
  // Integrity gate before parsing a single byte: the manifest must exist
  // (its absence means the export never reached its commit point) and every
  // listed file must match its recorded size and CRC-32C exactly.
  {
    const Status verified = VerifyManifest(directory);
    if (!verified.ok()) {
      if (verified.code() == StatusCode::kNotFound) {
        return Status::Corruption("snapshot " + directory +
                                  " has no MANIFEST (incomplete export?)");
      }
      return verified;
    }
  }
  FKD_ASSIGN_OR_RETURN(const ConfigReader reader,
                       ConfigReader::Read((dir / kConfigFile).string()));

  size_t format_version = 0;
  FKD_RETURN_NOT_OK(reader.GetUint("format_version", &format_version));
  if (format_version != kFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported snapshot format_version %zu", format_version));
  }

  // Codec hints default to the legacy encodings when absent (snapshots
  // exported before quantization landed carry neither key).
  nn::TensorCodec weights_codec = nn::TensorCodec::kFp32;
  if (!nn::TensorCodecFromName(reader.GetOr("weights_codec", "fp32"),
                               &weights_codec)) {
    return Status::Corruption("bad weights_codec in " + directory);
  }
  (void)weights_codec;  // recorded per record in FKDW v2; config is a hint
  FKD_ASSIGN_OR_RETURN(const BlockCodecId cold_codec,
                       BlockCodecIdFromName(reader.GetOr("cold_codec", "raw")));

  Snapshot snapshot;
  core::FakeDetectorConfig& c = snapshot.config;
  FKD_RETURN_NOT_OK(reader.GetUint("num_classes", &snapshot.num_classes));
  std::string granularity;
  FKD_RETURN_NOT_OK(reader.GetRaw("granularity", &granularity));
  if (granularity == "binary") {
    snapshot.granularity = eval::LabelGranularity::kBinary;
  } else if (granularity == "multi") {
    snapshot.granularity = eval::LabelGranularity::kMulti;
  } else {
    return Status::Corruption("bad granularity '" + granularity + "'");
  }
  FKD_RETURN_NOT_OK(reader.GetUint("hflu.embed_dim", &c.hflu.embed_dim));
  FKD_RETURN_NOT_OK(reader.GetUint("hflu.gru_hidden", &c.hflu.gru_hidden));
  FKD_RETURN_NOT_OK(reader.GetUint("hflu.latent_dim", &c.hflu.latent_dim));
  FKD_RETURN_NOT_OK(reader.GetUint("hflu.max_sequence_length",
                                   &c.hflu.max_sequence_length));
  std::string cell;
  FKD_RETURN_NOT_OK(reader.GetRaw("hflu.cell", &cell));
  if (cell == "gru") {
    c.hflu.cell = nn::RnnCellKind::kGru;
  } else if (cell == "basic") {
    c.hflu.cell = nn::RnnCellKind::kBasic;
  } else if (cell == "lstm") {
    c.hflu.cell = nn::RnnCellKind::kLstm;
  } else {
    return Status::Corruption("bad hflu.cell '" + cell + "'");
  }
  FKD_RETURN_NOT_OK(reader.GetBool("hflu.use_explicit", &c.hflu.use_explicit));
  FKD_RETURN_NOT_OK(reader.GetBool("hflu.use_latent", &c.hflu.use_latent));
  FKD_RETURN_NOT_OK(reader.GetUint("explicit_words", &c.explicit_words));
  FKD_RETURN_NOT_OK(reader.GetUint("latent_vocabulary", &c.latent_vocabulary));
  FKD_RETURN_NOT_OK(reader.GetUint("gdu_hidden", &c.gdu_hidden));
  FKD_RETURN_NOT_OK(reader.GetUint("diffusion_steps", &c.diffusion_steps));
  FKD_RETURN_NOT_OK(
      reader.GetBool("gdu.disable_forget_gate", &c.gdu.disable_forget_gate));
  FKD_RETURN_NOT_OK(
      reader.GetBool("gdu.disable_adjust_gate", &c.gdu.disable_adjust_gate));
  FKD_RETURN_NOT_OK(reader.GetBool("gdu.plain_unit", &c.gdu.plain_unit));
  size_t num_creators = 0;
  size_t num_subjects = 0;
  FKD_RETURN_NOT_OK(reader.GetUint("num_creators", &num_creators));
  FKD_RETURN_NOT_OK(reader.GetUint("num_subjects", &num_subjects));
  if (snapshot.num_classes == 0) {
    return Status::Corruption("num_classes must be >= 1");
  }

  {
    std::ifstream in(dir / kLabelsFile);
    if (!in) return Status::IoError("cannot read label map");
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) snapshot.class_names.push_back(line);
    }
    if (snapshot.class_names.size() != snapshot.num_classes) {
      return Status::Corruption(
          StrFormat("label map has %zu names, config says %zu classes",
                    snapshot.class_names.size(), snapshot.num_classes));
    }
  }

  std::vector<text::Vocabulary> vocabularies;
  for (const char* file : kVocabularyFiles) {
    const std::string path = (dir / ColdFileName(file, cold_codec)).string();
    if (cold_codec == BlockCodecId::kRaw) {
      FKD_ASSIGN_OR_RETURN(text::Vocabulary vocabulary,
                           text::Vocabulary::Load(path));
      vocabularies.push_back(std::move(vocabulary));
    } else {
      FKD_ASSIGN_OR_RETURN(const std::string bytes, ReadCompressedFile(path));
      FKD_ASSIGN_OR_RETURN(text::Vocabulary vocabulary,
                           text::Vocabulary::Parse(bytes, path));
      vocabularies.push_back(std::move(vocabulary));
    }
  }

  // The initialiser RNG is irrelevant: every parameter is overwritten from
  // the weights file (LoadParameters fails loudly on any name/shape drift).
  Rng rng(0);
  snapshot.model = std::make_unique<core::DiffusionModel>(
      c, snapshot.num_classes, std::move(vocabularies[0]),
      std::move(vocabularies[1]), std::move(vocabularies[2]),
      std::move(vocabularies[3]), std::move(vocabularies[4]),
      std::move(vocabularies[5]), &rng);
  FKD_RETURN_NOT_OK(nn::LoadParameters(snapshot.model.get(),
                                       (dir / kWeightsFile).string()));

  FrozenStates states(Tensor(num_creators, c.gdu_hidden),
                      Tensor(num_subjects, c.gdu_hidden));
  const std::string states_path =
      (dir / ColdFileName(kStatesFile, cold_codec)).string();
  if (cold_codec == BlockCodecId::kRaw) {
    FKD_RETURN_NOT_OK(nn::LoadParameters(&states, states_path));
  } else {
    FKD_ASSIGN_OR_RETURN(const std::string bytes,
                         ReadCompressedFile(states_path));
    FKD_RETURN_NOT_OK(nn::LoadParametersFromImage(&states, bytes.data(),
                                                  bytes.size(), states_path));
  }
  snapshot.creator_states = states.creators.value();
  snapshot.subject_states = states.subjects.value();
  return snapshot;
}

size_t Snapshot::ResidentBytes() const {
  // Fixed per-entry model for the hash-map + string + id bookkeeping a
  // vocabulary entry costs; exact token payloads on top.
  constexpr size_t kVocabularyEntryOverhead = 64;
  size_t bytes = (creator_states.size() + subject_states.size()) *
                 sizeof(float);
  for (const auto& name : class_names) bytes += name.size() + sizeof(name);
  if (model != nullptr) {
    std::vector<nn::NamedParameter> params;
    model->CollectParameters("", &params);
    for (const auto& p : params) {
      bytes += p.variable.value().size() * sizeof(float);
    }
    const text::Vocabulary* vocabularies[] = {
        &model->article_hflu().word_set(),
        &model->creator_hflu().word_set(),
        &model->subject_hflu().word_set(),
        &model->article_hflu().latent_vocabulary(),
        &model->creator_hflu().latent_vocabulary(),
        &model->subject_hflu().latent_vocabulary(),
    };
    for (const text::Vocabulary* vocabulary : vocabularies) {
      for (const auto& token : vocabulary->tokens()) {
        bytes += token.size() + kVocabularyEntryOverhead;
      }
    }
  }
  return bytes;
}

}  // namespace serve
}  // namespace fkd
