#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                     int32_t parent, uint64_t request_id) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::Append(SpanLog&& other) {
  const auto base = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
  other.spans_.clear();
}

std::map<std::string, SelfTime> SelfTimes(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                              span.end_ns);
    }
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t lo = std::max(start, cursor);
      const int64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SelfTime& self = out[span.name];
    ++self.count;
    self.total_us +=
        static_cast<double>(span.end_ns - span.start_ns - covered) / 1e3;
  }
  return out;
}

fkd::Status WriteChromeTrace(const SpanLog& log, size_t max_spans,
                             const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return fkd::Status::IoError("cannot write " + path);
  const auto& spans = log.spans();
  const size_t n = std::min(max_spans, spans.size());
  int64_t origin = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i == 0 || spans[i].start_ns < origin) origin = spans[i].start_ns;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? fkd::Status::OK()
                             : fkd::Status::IoError("cannot close " + path);
}

}  // namespace perfbench
