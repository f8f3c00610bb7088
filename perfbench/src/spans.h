#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One benchmark-side trace span. Times are steady-clock nanoseconds;
/// `parent` indexes the same SpanLog (-1 for a root). Spans of one request
/// share `request_id`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint64_t request_id = 0;
};

/// Spans kept in memory while the benchmark runs and written out at its
/// end. Not thread-safe: each recording thread owns one log, and logs are
/// merged with Append once the threads are joined.
class SpanLog {
 public:
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request_id);
  /// Moves `other`'s spans in, re-basing their parent indices.
  void Append(SpanLog&& other);

  const std::vector<Span>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

/// Per span name: number of spans and the sum of their self time, in
/// microseconds. A span's self time is its duration minus the part of
/// that interval its child spans cover.
struct SelfTime {
  uint64_t count = 0;
  double total_us = 0.0;
};
std::map<std::string, SelfTime> SelfTimes(const SpanLog& log);

/// Writes the first `max_spans` spans as a chrome://tracing JSON file (one
/// track per request id).
fkd::Status WriteChromeTrace(const SpanLog& log, size_t max_spans,
                             const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
