#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

/// The engine's batch cap: references are scored in batches of this size.
constexpr size_t kReferenceBatch = 16;
/// Stamps travel as microsecond doubles and are kept as floats here.
constexpr double kStampRoundingUs = 1.0;

struct Reference {
  int32_t class_id = -1;
  std::vector<float> probs;
};

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

AnswerCheck CheckAnswers(const Records& records,
                         const RequestSource& source,
                         const fkd::serve::Snapshot& snapshot,
                         int perturb_ulps) {
  std::vector<uint32_t> ids;
  for (const RequestRecord& rec : records) {
    if (rec.outcome == Outcome::kOk) ids.push_back(rec.text_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

  // Reference batches are independent, so they are scored across the
  // compute pool (kernels nested inside a pool task run inline; scores are
  // bitwise independent of thread count and batch composition).
  std::vector<Reference> refs(ids.size());
  const size_t num_batches = (ids.size() + kReferenceBatch - 1) / kReferenceBatch;
  fkd::ThreadPool::Global().ParallelFor(0, num_batches, 1, [&](size_t lo,
                                                               size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      const size_t begin = b * kReferenceBatch;
      const size_t end = std::min(ids.size(), begin + kReferenceBatch);
      std::vector<std::string> texts;
      std::vector<int32_t> creators;
      std::vector<std::vector<int32_t>> subjects;
      for (size_t i = begin; i < end; ++i) {
        fkd::net::ClassifyRequestMsg msg = source.Request(ids[i]);
        texts.push_back(std::move(msg.text));
        creators.push_back(msg.creator_id);
        subjects.push_back(std::move(msg.subject_ids));
      }
      const fkd::Tensor probs =
          fkd::SoftmaxRows(snapshot.Score(texts, creators, subjects));
      for (size_t r = 0; r < texts.size(); ++r) {
        Reference& ref = refs[begin + r];
        ref.probs.assign(probs.Row(r), probs.Row(r) + probs.cols());
        ref.class_id = 0;
        for (size_t c = 1; c < probs.cols(); ++c) {
          if (probs.At(r, c) > probs.At(r, ref.class_id)) {
            ref.class_id = static_cast<int32_t>(c);
          }
        }
        for (int u = 0; u < perturb_ulps; ++u) {
          for (float& p : ref.probs) p = std::nextafter(p, 2.0f);
        }
      }
    }
  });

  AnswerCheck check;
  for (const RequestRecord& rec : records) {
    if (rec.outcome != Outcome::kOk) continue;
    ++check.checked;
    const auto at = std::lower_bound(ids.begin(), ids.end(), rec.text_id);
    const Reference& ref = refs[static_cast<size_t>(at - ids.begin())];
    const bool same =
        rec.class_id == ref.class_id && rec.num_probs == ref.probs.size() &&
        std::memcmp(rec.probs.data(), ref.probs.data(),
                    ref.probs.size() * sizeof(float)) == 0;
    if (!same) ++check.mismatches;
  }
  return check;
}

WireBudget CheckWireBudget(const Records& records) {
  WireBudget budget;
  for (const RequestRecord& rec : records) {
    if (rec.outcome != Outcome::kOk) continue;
    ++budget.checked;
    const double segments = static_cast<double>(rec.cache_us) + rec.queue_us +
                            rec.batch_us + rec.compute_us;
    const double parts[] = {rec.cache_us, rec.queue_us, rec.batch_us,
                            rec.compute_us,
                            rec.ServerUs() - segments,     // server remainder
                            rec.RttUs() - rec.ServerUs()};  // network residual
    double worst = 0.0;
    for (double part : parts) worst = std::min(worst, part);
    if (-worst > kStampRoundingUs) {
      ++budget.violations;
      budget.max_violation_us = std::max(budget.max_violation_us, -worst);
    }
  }
  return budget;
}

bool StageBudget::Closes(double tolerance) const {
  return score_us > 0.0 && std::abs(ResidualUs()) <= tolerance * score_us;
}

}  // namespace perfbench
