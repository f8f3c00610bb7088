#include "inputs.h"

#include <algorithm>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/fake_detector.h"
#include "data/generator.h"
#include "data/split.h"
#include "serve/snapshot.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t k) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

fkd::Status TrainSnapshot(uint64_t seed, const std::string& directory) {
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(kTrainArticles, seed));
  FKD_RETURN_NOT_OK(dataset.status());
  auto graph = dataset.value().BuildGraph();
  FKD_RETURN_NOT_OK(graph.status());
  fkd::Rng rng(Mix(seed, 1));
  auto splits = fkd::data::KFoldTriSplits(
      dataset.value().articles.size(), dataset.value().creators.size(),
      dataset.value().subjects.size(), 5, &rng);
  FKD_RETURN_NOT_OK(splits.status());

  fkd::core::FakeDetectorConfig config;
  config.epochs = 10;
  config.verbose = false;
  fkd::eval::TrainContext context;
  context.dataset = &dataset.value();
  context.graph = &graph.value();
  context.train_articles = splits.value()[0].articles.train;
  context.train_creators = splits.value()[0].creators.train;
  context.train_subjects = splits.value()[0].subjects.train;
  context.granularity = fkd::eval::LabelGranularity::kBinary;
  context.seed = Mix(seed, 2);
  fkd::core::FakeDetector detector(config);
  FKD_RETURN_NOT_OK(detector.Train(context));
  return fkd::serve::ExportSnapshot(detector, directory);
}

fkd::Result<RequestSource> RequestSource::Create(uint64_t seed,
                                                 size_t num_creators,
                                                 size_t num_subjects) {
  if (num_creators == 0 || num_subjects == 0) {
    return fkd::Status::InvalidArgument("snapshot has no creators/subjects");
  }
  // A corpus generated from a different stream than the training corpus:
  // the requests are new articles by the snapshot's creators.
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(kBaseArticles, Mix(seed, 3)));
  FKD_RETURN_NOT_OK(dataset.status());
  RequestSource source;
  source.seed_ = seed;
  for (const auto& article : dataset.value().articles) {
    source.texts_.push_back(article.text);
    source.creators_.push_back(
        static_cast<int32_t>(static_cast<size_t>(article.creator) %
                             num_creators));
    std::vector<int32_t> subjects;
    for (int32_t s : article.subjects) {
      const auto id = static_cast<int32_t>(static_cast<size_t>(s) %
                                           num_subjects);
      if (std::find(subjects.begin(), subjects.end(), id) == subjects.end()) {
        subjects.push_back(id);
      }
    }
    source.subjects_.push_back(std::move(subjects));
  }
  if (source.texts_.size() < kHotCorpus) {
    return fkd::Status::Internal("generator produced too few articles");
  }
  return source;
}

fkd::net::ClassifyRequestMsg RequestSource::Request(uint32_t id) const {
  const size_t base = IsHot(id) ? id : Mix(seed_, id) % texts_.size();
  fkd::net::ClassifyRequestMsg msg;
  msg.text = texts_[base];
  if (!IsHot(id)) {
    // A unique suffix defeats the score cache without changing the text's
    // length class; it is also what makes every unique request distinct.
    msg.text += fkd::StrFormat(" ref%llxs%llx",
                               static_cast<unsigned long long>(id),
                               static_cast<unsigned long long>(seed_));
  }
  msg.creator_id = creators_[base];
  msg.subject_ids = subjects_[base];
  return msg;
}

}  // namespace perfbench
