#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <vector>

#include "inputs.h"
#include "serve/snapshot.h"
#include "wire.h"

namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 for an empty set.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Result of checking every ok response against the in-process reference.
struct AnswerCheck {
  uint64_t checked = 0;     ///< ok responses compared
  uint64_t mismatches = 0;  ///< class id or any probability bit differs
};

/// Scores every distinct text id among the ok `records` in process
/// (Snapshot::Score, then the engine's SoftmaxRows and first-max argmax)
/// and compares each response bitwise against it. `perturb_ulps` nudges
/// every reference probability by that many ulps; the self-test uses it to
/// prove a wrong answer is caught.
AnswerCheck CheckAnswers(const Records& records,
                         const RequestSource& source,
                         const fkd::serve::Snapshot& snapshot,
                         int perturb_ulps = 0);

/// Per-request latency budget of a wire run: for every ok response, the
/// server-stamped cache + queue + batch + compute segments, the server's
/// own unattributed remainder (RequestRecord::ServerUs - segments) and the
/// network residual (client RTT - ServerUs) must each be non-negative, and
/// so sum exactly to the client RTT. `violations` counts requests where a part
/// came out negative by more than the stamps' rounding.
struct WireBudget {
  uint64_t checked = 0;
  uint64_t violations = 0;
  double max_violation_us = 0.0;
};
WireBudget CheckWireBudget(const Records& records);

/// The compute budget of one article: the five stages timed one by one
/// against the whole Snapshot::Score call timed on its own.
struct StageBudget {
  double prepare_us = 0, hflu_us = 0, aggregate_us = 0, gdu_us = 0,
         head_us = 0;
  double score_us = 0;

  double StageSum() const {
    return prepare_us + hflu_us + aggregate_us + gdu_us + head_us;
  }
  /// What the stages leave unexplained (softmax-free glue: id grouping,
  /// tensor wrapping, cache effects between separately timed calls).
  double ResidualUs() const { return score_us - StageSum(); }
  /// True when the stages account for the whole call to within
  /// `tolerance` of it, in either direction.
  bool Closes(double tolerance) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
