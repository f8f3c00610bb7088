// Closed-loop load generator for fkd_server, speaking FKDN/1.
//
//   ./fkd_loadgen --port=7433 --ping
//   ./fkd_loadgen --port=7433 --connections=8 --duration-s=10
//
// Each connection keeps --window requests outstanding for one timed round;
// the round's report prints as one JSON line (net::LoadGenReport::ToJson).
// --expect-zero-errors makes the exit code apply LoadGenReport::Clean():
// at least one ok response and no failure of any kind. The client flags
// (--timeout-us, --retries, --backoff-us) configure the underlying
// net::NetClient. This drives load for smoke tests and
// drills; measurement belongs to the serving benchmark, perfbench/.

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "data/generator.h"
#include "net/loadgen.h"

namespace {

/// Builds the request corpus from the same synthetic distribution the demo
/// server trains on, so cache hit rates are realistic rather than 100%.
std::vector<fkd::net::ClassifyRequestMsg> BuildCorpus(size_t articles) {
  auto dataset = fkd::data::GeneratePolitiFact(
      fkd::data::GeneratorOptions::Scaled(articles, 1337));
  FKD_CHECK_OK(dataset.status());
  std::vector<fkd::net::ClassifyRequestMsg> corpus;
  corpus.reserve(dataset.value().articles.size());
  for (const auto& article : dataset.value().articles) {
    fkd::net::ClassifyRequestMsg msg;
    msg.text = article.text;
    corpus.push_back(std::move(msg));
  }
  return corpus;
}

}  // namespace

int main(int argc, char** argv) {
  fkd::FlagParser flags;
  flags.AddString("host", "127.0.0.1", "server address (numeric IPv4)");
  flags.AddInt("port", 7433, "server port");
  flags.AddInt("connections", 4, "client connections");
  flags.AddInt("window", 4, "outstanding requests per connection");
  flags.AddInt("duration-s", 10, "measured seconds");
  flags.AddInt("warmup-s", 1, "warmup seconds excluded from the report");
  flags.AddInt("deadline-us", 0, "per-request engine deadline (0 = none)");
  flags.AddInt("timeout-us", 0,
               "client-side per-request budget, propagated to the server "
               "as an absolute deadline (0 = 80% of the drain timeout)");
  flags.AddInt("retries", 4, "max send attempts per request (>=1)");
  flags.AddInt("backoff-us", 1000, "base retry backoff, doubled per attempt");
  flags.AddInt("corpus", 200, "distinct request bodies to cycle");
  flags.AddBool("unique", false,
                "salt every request so the score cache never hits "
                "(measures the engine-bound path)");
  flags.AddBool("expect-zero-errors", false,
                "exit non-zero unless the round is clean: some ok "
                "responses and no failure of any kind");
  flags.AddBool("ping", false, "one kPing round trip, print RTT, exit");
  fkd::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return parsed.code() == fkd::StatusCode::kFailedPrecondition ? 0 : 1;
  }

  const std::string host = flags.GetString("host");
  const int port = static_cast<int>(flags.GetInt("port"));

  if (flags.GetBool("ping")) {
    auto rtt = fkd::net::Ping(host, port);
    FKD_CHECK_OK(rtt.status());
    std::printf("pong from %s:%d in %lld us\n", host.c_str(), port,
                static_cast<long long>(rtt.value()));
    return 0;
  }

  fkd::net::LoadGenOptions options;
  options.host = host;
  options.port = port;
  options.connections = static_cast<size_t>(flags.GetInt("connections"));
  options.window = static_cast<size_t>(flags.GetInt("window"));
  options.duration_ms = flags.GetInt("duration-s") * 1000;
  options.warmup_ms = flags.GetInt("warmup-s") * 1000;
  options.deadline_us = flags.GetInt("deadline-us");
  options.corpus = BuildCorpus(static_cast<size_t>(flags.GetInt("corpus")));
  options.unique_requests = flags.GetBool("unique");
  options.request_timeout_us = flags.GetInt("timeout-us");
  options.retry.max_attempts = static_cast<int>(flags.GetInt("retries"));
  options.retry.backoff_base_us = flags.GetInt("backoff-us");

  auto report = fkd::net::RunLoadGen(options);
  FKD_CHECK_OK(report.status());
  std::printf("%s\n", report.value().ToJson().c_str());
  if (flags.GetBool("expect-zero-errors") && !report.value().Clean()) {
    std::fflush(stdout);
    std::fprintf(stderr, "FAILED: the round is not clean (expected some ok "
                         "responses and no failure of any kind)\n");
    return 1;
  }
  return 0;
}
