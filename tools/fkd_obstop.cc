// fkd_obstop — live serving dashboard over the StatsExporter's JSONL feed.
//
// Tails the file written by obs::StatsExporter (FKD_STATS_INTERVAL_MS /
// FKD_STATS_PATH), parses the newest "fkd_stats" line, and renders QPS,
// windowed latency percentiles, cache hit ratio and queue depth — a `top`
// for the serving stack, no dependencies beyond the feed file itself.
//
//   fkd_obstop [--once] [--interval-ms N] [path]
//
//   path          stats file (default: $FKD_STATS_PATH or fkd_stats.jsonl)
//   --once        render a single frame and exit (scripts, tests)
//   --interval-ms refresh period in follow mode (default 1000)
//
// Follow mode clears the terminal between frames with ANSI escapes and
// exits cleanly on Ctrl-C.

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

namespace {

// ---- minimal extraction over the exporter's known output ---------------------

/// Returns the balanced `{...}` object that starts at `begin` (which must
/// point at '{'), or an empty string on malformed input. The exporter never
/// emits braces inside strings except in instrument identities, which hold
/// no quotes, so plain depth counting is sound here.
std::string BalancedObject(const std::string& text, size_t begin) {
  if (begin >= text.size() || text[begin] != '{') return "";
  int depth = 0;
  for (size_t i = begin; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) {
      return text.substr(begin, i - begin + 1);
    }
  }
  return "";
}

/// The object value of `"key":{...}` inside `text`; empty if absent.
std::string ExtractObject(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  return BalancedObject(text, at + needle.size() - 1);
}

/// The numeric value of `"key":<number>` inside `text`; 0 if absent.
double ExtractNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return 0.0;
  const size_t start = at + needle.size();
  if (start >= text.size() ||
      (!std::isdigit(static_cast<unsigned char>(text[start])) &&
       text[start] != '-')) {
    return 0.0;
  }
  return std::strtod(text.c_str() + start, nullptr);
}

/// Sum of one subfield over every `fkd.serve.requests{result=...}` counter
/// listed in `results` (comma-separated), e.g. the ok+cache_hit rate = QPS.
double SumRequestField(const std::string& counters, const char* field,
                       std::initializer_list<const char*> results) {
  double total = 0.0;
  for (const char* result : results) {
    const std::string identity =
        std::string("fkd.serve.requests{result=") + result + "}";
    const std::string object = ExtractObject(counters, identity);
    if (!object.empty()) total += ExtractNumber(object, field);
  }
  return total;
}

/// Newest non-empty "fkd_stats" line of the feed, or empty.
std::string LastStatsLine(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "";
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"fkd_stats\"") != std::string::npos) {
      last = line;
    }
  }
  return last;
}

// ---- rendering ---------------------------------------------------------------

void PrintHistogramRow(const char* label, const std::string& histograms,
                       const std::string& identity) {
  const std::string object = ExtractObject(histograms, identity);
  if (object.empty()) return;
  const std::string window = ExtractObject(object, "window");
  // Prefer the last-interval window; fall back to lifetime stats before the
  // second tick.
  const std::string& source = window.empty() ? object : window;
  std::printf("  %-12s p50=%-10.0f p99=%-10.0f p999=%-10.0f %s\n", label,
              ExtractNumber(source, "p50"), ExtractNumber(source, "p99"),
              ExtractNumber(source, "p999"),
              window.empty() ? "(lifetime)" : "(window)");
}

void RenderFrame(const std::string& path, const std::string& line) {
  if (line.empty()) {
    std::printf("fkd_obstop: waiting for stats at %s\n", path.c_str());
    std::printf("  (start the server with FKD_STATS_INTERVAL_MS=1000)\n");
    return;
  }
  const std::string counters = ExtractObject(line, "counters");
  const std::string gauges = ExtractObject(line, "gauges");
  const std::string histograms = ExtractObject(line, "histograms");

  const double uptime_s = ExtractNumber(line, "uptime_ms") / 1000.0;
  std::printf("fkd obstop — %s   seq=%.0f  uptime=%.1fs  tick=%.0fms\n",
              path.c_str(), ExtractNumber(line, "seq"), uptime_s,
              ExtractNumber(line, "interval_ms"));

  const double engine_qps = SumRequestField(counters, "rate", {"ok"});
  const double cache_qps = SumRequestField(counters, "rate", {"cache_hit"});
  std::printf("  %-12s total=%-10.1f engine=%-10.1f cache=%-10.1f\n", "qps",
              engine_qps + cache_qps, engine_qps, cache_qps);
  const double errors = SumRequestField(
      counters, "rate", {"rejected", "expired", "failed", "unavailable"});
  std::printf(
      "  %-12s total=%-10.2f rejected=%-6.1f expired=%-6.1f failed=%-6.1f\n",
      "errors/s", errors, SumRequestField(counters, "rate", {"rejected"}),
      SumRequestField(counters, "rate", {"expired"}),
      SumRequestField(counters, "rate", {"failed"}));

  PrintHistogramRow("latency_us", histograms, "fkd.serve.latency_us{}");
  PrintHistogramRow("queue_us", histograms, "fkd.serve.queue_us{}");
  PrintHistogramRow("compute_us", histograms, "fkd.serve.compute_us{}");

  const std::string hits_object =
      ExtractObject(counters, "fkd.serve.cache_hit{}");
  const std::string misses_object =
      ExtractObject(counters, "fkd.serve.cache_miss{}");
  const double hits = ExtractNumber(hits_object, "total");
  const double misses = ExtractNumber(misses_object, "total");
  const double lookups = hits + misses;
  std::printf("  %-12s ratio=%-6.2f hits=%-10.0f misses=%-10.0f\n", "cache",
              lookups > 0 ? hits / lookups : 0.0, hits, misses);

  std::printf("  %-12s depth=%-6.0f version=%-6.0f\n", "engine",
              ExtractNumber(gauges, "fkd.serve.queue_depth{}"),
              ExtractNumber(gauges, "fkd.serve.active_version{}"));

  // Network front end (present only when fkd_server is running).
  const std::string conns_object =
      ExtractObject(counters, "fkd.net.connections_total{}");
  if (!conns_object.empty()) {
    std::printf(
        "  %-12s active=%-6.0f inflight=%-6.0f accepts/s=%-8.2f "
        "frames_in/s=%-8.1f frames_out/s=%-8.1f\n",
        "net",
        ExtractNumber(gauges, "fkd.net.connections{}"),
        ExtractNumber(gauges, "fkd.net.inflight{}"),
        ExtractNumber(conns_object, "rate"),
        ExtractNumber(ExtractObject(counters, "fkd.net.frames{dir=in}"),
                      "rate"),
        ExtractNumber(ExtractObject(counters, "fkd.net.frames{dir=out}"),
                      "rate"));
    std::printf(
        "  %-12s shed/s=%-8.2f proto_errs=%-6.0f idle_closed=%-6.0f "
        "dropped=%-6.0f\n",
        "net errors",
        ExtractNumber(ExtractObject(counters, "fkd.net.shed{}"), "rate"),
        ExtractNumber(ExtractObject(counters, "fkd.net.protocol_errors{}"),
                      "total"),
        ExtractNumber(ExtractObject(counters, "fkd.net.idle_closed{}"),
                      "total"),
        ExtractNumber(
            ExtractObject(counters, "fkd.net.responses_dropped{}"),
            "total"));
    PrintHistogramRow("net_req_us", histograms, "fkd.net.request_us{}");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool once = false;
  int interval_ms = 1000;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--once") {
      once = true;
    } else if (arg == "--interval-ms" && i + 1 < argc) {
      interval_ms = std::atoi(argv[++i]);
      if (interval_ms <= 0) interval_ms = 1000;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: fkd_obstop [--once] [--interval-ms N] [path]\n");
      return 0;
    } else {
      path = arg;
    }
  }
  if (path.empty()) {
    const char* env = std::getenv("FKD_STATS_PATH");
    path = (env != nullptr && *env != '\0') ? env : "fkd_stats.jsonl";
  }

  if (once) {
    RenderFrame(path, LastStatsLine(path));
    return 0;
  }
  const bool tty = ::isatty(STDOUT_FILENO) != 0;
  for (;;) {
    if (tty) std::printf("\x1b[2J\x1b[H");  // clear + home between frames
    RenderFrame(path, LastStatsLine(path));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
