#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace perfbench {

/// Articles in the synthetic corpus the benchmark's snapshot is trained on.
inline constexpr size_t kTrainArticles = 240;
/// Distinct article statements the request streams are built from.
inline constexpr size_t kBaseArticles = 400;
/// Size of the repeated ("hot") corpus of hot_closed and swap_mixed.
inline constexpr size_t kHotCorpus = 200;

/// Trains the FakeDetector on a synthetic corpus generated from `seed` and
/// exports it as a serving snapshot into `directory`. Deterministic in the
/// seed, and the same recipe fkd_server's --demo mode uses.
fkd::Status TrainSnapshot(uint64_t seed, const std::string& directory);

/// The request inputs of one workload seed. Every request is named by a
/// text id: ids below kHotCorpus are the hot corpus (repeated verbatim),
/// every other id is a unique article that no earlier request carried.
/// Requests are pure functions of (seed, id), so the answer check can
/// rebuild any request after the run instead of storing it.
class RequestSource {
 public:
  /// Generates the base statements from `seed`; graph ids are drawn below
  /// the snapshot's `num_creators` / `num_subjects`.
  static fkd::Result<RequestSource> Create(uint64_t seed, size_t num_creators,
                                           size_t num_subjects);

  /// The request carrying text id `id`.
  fkd::net::ClassifyRequestMsg Request(uint32_t id) const;

  /// Text id of the k-th unique request (k = 0, 1, ...).
  static uint32_t UniqueId(uint64_t k) {
    return static_cast<uint32_t>(kHotCorpus + k);
  }
  static bool IsHot(uint32_t id) { return id < kHotCorpus; }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_ = 0;
  std::vector<std::string> texts_;
  std::vector<int32_t> creators_;
  std::vector<std::vector<int32_t>> subjects_;
};

/// SplitMix64 finaliser: a well-mixed pure function of (seed, k), used for
/// every per-request random choice so streams depend only on the seed.
uint64_t Mix(uint64_t seed, uint64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
