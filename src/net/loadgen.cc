#include "net/loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/string_util.h"
#include "net/client.h"
#include "obs/metrics.h"

namespace fkd {
namespace net {

namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<int> ConnectTo(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("bad address \"%s\" (numeric IPv4 only)", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IoError(
        StrFormat("connect %s:%d: %s", host.c_str(), port,
                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Status WriteAll(int fd, const std::string& bytes) {
  size_t offset = 0;
  while (offset < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                             MSG_NOSIGNAL);
    if (n > 0) {
      offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IoError(StrFormat("write: %s", std::strerror(errno)));
  }
  return Status::OK();
}

/// Blocking single-frame round trip on a fresh connection.
Result<Frame> RoundTrip(const std::string& host, int port,
                        MessageType type, const std::string& payload,
                        int64_t timeout_ms = 30000) {
  FKD_ASSIGN_OR_RETURN(const int fd, ConnectTo(host, port));
  const Status write_status =
      WriteAll(fd, EncodeFrame(type, /*request_id=*/1, payload));
  if (!write_status.ok()) {
    ::close(fd);
    return write_status;
  }
  FrameDecoder decoder;
  const int64_t deadline_us = NowUs() + timeout_ms * 1000;
  char chunk[16 * 1024];
  for (;;) {
    Frame frame;
    bool ready = false;
    const Status status = decoder.Next(&frame, &ready);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
    if (ready) {
      ::close(fd);
      return frame;
    }
    const int64_t remaining_ms = (deadline_us - NowUs()) / 1000;
    if (remaining_ms <= 0) {
      ::close(fd);
      return Status::DeadlineExceeded("timed out waiting for response frame");
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rv = ::poll(&pfd, 1, static_cast<int>(remaining_ms));
    if (rv < 0 && errno != EINTR) {
      ::close(fd);
      return Status::IoError(StrFormat("poll: %s", std::strerror(errno)));
    }
    if (rv <= 0) continue;
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("server closed the connection mid-round-trip");
    }
    decoder.Append(chunk, static_cast<size_t>(n));
  }
}

Result<uint64_t> ControlRoundTrip(const std::string& host, int port,
                                  MessageType type,
                                  const std::string& payload) {
  FKD_ASSIGN_OR_RETURN(Frame frame, RoundTrip(host, port, type, payload));
  FKD_ASSIGN_OR_RETURN(ControlResponseMsg msg,
                       DecodeControlResponse(frame.payload));
  if (!msg.ok) {
    return Status(static_cast<StatusCode>(msg.status_code), msg.message);
  }
  return msg.value;
}

/// Counters shared by every worker thread of one run.
struct SharedState {
  std::atomic<uint64_t> sent{0};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> deadline_exceeded{0};
  std::atomic<uint64_t> from_cache{0};
  std::atomic<uint64_t> connect_failures{0};
  std::atomic<uint64_t> io_errors{0};
  std::atomic<uint64_t> timeouts{0};
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> hedges{0};
  std::atomic<uint64_t> hedge_wins{0};
  obs::Histogram latency_us;
  /// Measured window, steady-clock us: samples outside are dropped.
  int64_t window_start_us = 0;
  int64_t window_end_us = 0;
};

/// One connection's sending loop, built on the resilient NetClient: the
/// client owns per-request timeouts, retries and (optionally) hedging, so
/// a response lost on the wire times out and frees its window slot instead
/// of wedging the worker forever. Runs until past window_end + drain.
void Worker(const LoadGenOptions& options, size_t index, SharedState* shared) {
  // Pre-flight with a blocking connect so a server that is down at start
  // is reported as a connect failure, not a run full of timeouts.
  {
    Result<int> probe = ConnectTo(options.host, options.port);
    if (!probe.ok()) {
      shared->connect_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ::close(probe.value());
  }

  int64_t request_timeout_us = options.request_timeout_us;
  if (request_timeout_us <= 0) {
    // Default: comfortably inside the drain, so every straggler resolves
    // (as a timeout) before the run gives up on it.
    request_timeout_us = options.drain_timeout_ms * 1000 * 8 / 10;
    if (request_timeout_us <= 0) request_timeout_us = 1'000'000;
  }

  NetClientOptions client_options;
  client_options.host = options.host;
  client_options.port = options.port;
  client_options.default_timeout_us = request_timeout_us;
  client_options.retry = options.retry;
  // Decorrelate jitter across connections without losing determinism.
  client_options.retry.seed += index;
  client_options.hedge = options.hedge;
  NetClient client(client_options);
  if (!client.Start().ok()) {
    shared->connect_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // Closed-loop window accounting: callbacks (on the client's I/O thread)
  // release slots; this thread acquires them.
  std::mutex mutex;
  std::condition_variable cv;
  size_t outstanding = 0;

  uint64_t next_seq = 1;
  size_t corpus_index = index % options.corpus.size();

  const bool open_loop = options.open_loop_qps > 0.0;
  const double conn_qps =
      open_loop ? options.open_loop_qps / static_cast<double>(
                                              options.connections)
                : 0.0;
  const int64_t send_interval_us =
      open_loop ? static_cast<int64_t>(1e6 / conn_qps) : 0;
  // Stagger open-loop schedules so N connections don't fire in lockstep.
  int64_t next_send_us =
      NowUs() + (open_loop ? static_cast<int64_t>(index) * send_interval_us /
                                 static_cast<int64_t>(options.connections)
                           : 0);

  const int64_t send_end_us = shared->window_end_us;
  const int64_t drain_end_us = send_end_us + options.drain_timeout_ms * 1000;

  auto send_one = [&]() {
    ClassifyRequestMsg msg = options.corpus[corpus_index];
    corpus_index = (corpus_index + 1) % options.corpus.size();
    if (options.deadline_us > 0) msg.deadline_us = options.deadline_us;
    if (options.unique_requests) {
      const uint64_t nonce =
          (static_cast<uint64_t>(index + 1) << 48) | next_seq++;
      msg.text +=
          StrFormat(" #%llu", static_cast<unsigned long long>(nonce));
    }
    const int64_t sent_at = NowUs();
    if (sent_at >= shared->window_start_us && sent_at < send_end_us) {
      shared->sent.fetch_add(1, std::memory_order_relaxed);
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++outstanding;
    }
    client.Submit(std::move(msg), [&, sent_at](
                                      Result<ClassifyResponseMsg> result) {
      const int64_t now = NowUs();
      const bool measured =
          now >= shared->window_start_us && now < shared->window_end_us;
      StatusCode code = StatusCode::kOk;
      if (result.ok() && result.value().ok) {
        if (measured) {
          shared->ok.fetch_add(1, std::memory_order_relaxed);
          if (result.value().from_cache) {
            shared->from_cache.fetch_add(1, std::memory_order_relaxed);
          }
          shared->latency_us.Observe(static_cast<double>(now - sent_at));
        }
      } else {
        code = result.ok()
                   ? static_cast<StatusCode>(result.value().status_code)
                   : result.status().code();
        if (measured) {
          switch (code) {
            case StatusCode::kUnavailable:
              shared->shed.fetch_add(1, std::memory_order_relaxed);
              break;
            case StatusCode::kDeadlineExceeded:
              shared->deadline_exceeded.fetch_add(1,
                                                  std::memory_order_relaxed);
              break;
            case StatusCode::kIoError:
              shared->io_errors.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              shared->errors.fetch_add(1, std::memory_order_relaxed);
              break;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mutex);
      --outstanding;
      cv.notify_all();
    });
  };

  if (open_loop) {
    while (true) {
      const int64_t now = NowUs();
      if (now >= send_end_us) break;
      if (now >= next_send_us) {
        send_one();
        next_send_us += send_interval_us;
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<int64_t>(next_send_us - now, 100'000)));
    }
  } else {
    std::unique_lock<std::mutex> lock(mutex);
    while (NowUs() < send_end_us) {
      if (outstanding >= options.window) {
        cv.wait_for(lock, std::chrono::milliseconds(100),
                    [&] { return outstanding < options.window; });
        continue;
      }
      lock.unlock();
      send_one();
      lock.lock();
    }
  }

  // Drain: per-request timeouts guarantee progress, so everything resolves
  // by send_end + request_timeout; the drain budget just caps our patience.
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (outstanding > 0 && NowUs() < drain_end_us) {
      cv.wait_for(lock, std::chrono::milliseconds(50));
    }
    if (outstanding > 0) {
      // Stragglers past the drain budget: lost to this run.
      shared->io_errors.fetch_add(outstanding, std::memory_order_relaxed);
    }
  }
  client.Stop();

  const NetClientStats stats = client.Stats();
  shared->timeouts.fetch_add(stats.timeouts, std::memory_order_relaxed);
  shared->retries.fetch_add(stats.retries, std::memory_order_relaxed);
  shared->hedges.fetch_add(stats.hedges, std::memory_order_relaxed);
  shared->hedge_wins.fetch_add(stats.hedge_wins, std::memory_order_relaxed);
}

}  // namespace

std::string LoadGenReport::ToJson() const {
  return StrFormat(
      "{\"mode\": \"%s\", \"connections\": %zu, \"window\": %zu, "
      "\"target_qps\": %.1f, \"duration_ms\": %lld, \"warmup_ms\": %lld, "
      "\"sent\": %llu, \"ok\": %llu, \"errors\": %llu, \"shed\": %llu, "
      "\"deadline_exceeded\": %llu, \"from_cache\": %llu, "
      "\"connect_failures\": %llu, \"io_errors\": %llu, "
      "\"timeouts\": %llu, \"retries\": %llu, \"hedges\": %llu, "
      "\"hedge_wins\": %llu, \"achieved_qps\": %.2f, \"p50_us\": %.1f, "
      "\"p90_us\": %.1f, \"p99_us\": %.1f, \"p999_us\": %.1f, "
      "\"mean_us\": %.1f, \"max_us\": %.1f}",
      mode.c_str(), connections, window, target_qps,
      static_cast<long long>(duration_ms), static_cast<long long>(warmup_ms),
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(errors),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_exceeded),
      static_cast<unsigned long long>(from_cache),
      static_cast<unsigned long long>(connect_failures),
      static_cast<unsigned long long>(io_errors),
      static_cast<unsigned long long>(timeouts),
      static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(hedges),
      static_cast<unsigned long long>(hedge_wins), achieved_qps, p50_us,
      p90_us, p99_us, p999_us, mean_us, max_us);
}

Result<LoadGenReport> RunLoadGen(const LoadGenOptions& options) {
  if (options.corpus.empty()) {
    return Status::InvalidArgument("loadgen corpus is empty");
  }
  if (options.connections == 0) {
    return Status::InvalidArgument("loadgen needs at least one connection");
  }
  SharedState shared;
  shared.window_start_us = NowUs() + options.warmup_ms * 1000;
  shared.window_end_us = shared.window_start_us + options.duration_ms * 1000;

  std::vector<std::thread> workers;
  workers.reserve(options.connections);
  for (size_t i = 0; i < options.connections; ++i) {
    workers.emplace_back(Worker, std::cref(options), i, &shared);
  }
  for (auto& worker : workers) worker.join();

  if (shared.connect_failures.load() == options.connections) {
    return Status::Unavailable(StrFormat(
        "all %zu loadgen connections failed to connect to %s:%d",
        options.connections, options.host.c_str(), options.port));
  }

  LoadGenReport report;
  report.mode = options.open_loop_qps > 0.0 ? "open" : "closed";
  report.connections = options.connections;
  report.window = options.window;
  report.target_qps = options.open_loop_qps;
  report.duration_ms = options.duration_ms;
  report.warmup_ms = options.warmup_ms;
  report.sent = shared.sent.load();
  report.ok = shared.ok.load();
  report.errors = shared.errors.load();
  report.shed = shared.shed.load();
  report.deadline_exceeded = shared.deadline_exceeded.load();
  report.from_cache = shared.from_cache.load();
  report.connect_failures = shared.connect_failures.load();
  report.io_errors = shared.io_errors.load();
  report.timeouts = shared.timeouts.load();
  report.retries = shared.retries.load();
  report.hedges = shared.hedges.load();
  report.hedge_wins = shared.hedge_wins.load();
  report.achieved_qps =
      static_cast<double>(report.ok) /
      (static_cast<double>(options.duration_ms) / 1000.0);
  if (shared.latency_us.Count() > 0) {
    report.p50_us = shared.latency_us.Percentile(0.50);
    report.p90_us = shared.latency_us.Percentile(0.90);
    report.p99_us = shared.latency_us.Percentile(0.99);
    report.p999_us = shared.latency_us.Percentile(0.999);
    report.mean_us = shared.latency_us.Mean();
    report.max_us = shared.latency_us.Max();
  }
  return report;
}

Result<int64_t> Ping(const std::string& host, int port) {
  const int64_t start_us = NowUs();
  FKD_ASSIGN_OR_RETURN(Frame frame,
                       RoundTrip(host, port, MessageType::kPing, ""));
  if (frame.type != MessageType::kPong) {
    return Status::Internal(StrFormat("expected kPong, got %s",
                                      MessageTypeName(frame.type)));
  }
  return NowUs() - start_us;
}

Result<uint64_t> RequestSwap(const std::string& host, int port) {
  return ControlRoundTrip(host, port, MessageType::kSwapRequest, "");
}

Result<uint64_t> RequestCanary(const std::string& host, int port,
                               uint32_t permille) {
  return ControlRoundTrip(host, port, MessageType::kCanaryRequest,
                          EncodeCanaryRequest(permille));
}

}  // namespace net
}  // namespace fkd
