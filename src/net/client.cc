#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fkd {
namespace net {

namespace {

/// Upper bound on one poll() sleep. Timer math below may postpone a timer
/// whose precondition is not met (e.g. a retry waiting for the reconnect);
/// the cap bounds how stale such a decision can get.
constexpr int64_t kMaxPollMs = 100;

constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

NetClient::NetClient(NetClientOptions options)
    : options_(std::move(options)), retry_(options_.retry) {}

NetClient::~NetClient() { Stop(); }

Status NetClient::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("NetClient already started");
  }
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    return Status::IoError(StrFormat("eventfd: %s", std::strerror(errno)));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    StartConnect();
  }
  io_thread_ = std::thread([this] { IoMain(); });
  return Status::OK();
}

void NetClient::Stop() {
  if (!started_.load() || stop_.exchange(true)) {
    if (io_thread_.joinable()) io_thread_.join();
    return;
  }
  Wake();
  if (io_thread_.joinable()) io_thread_.join();
  // IoMain's exit path failed everything still pending; just release the
  // wake fd (the socket is closed by the I/O thread).
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
}

uint64_t NetClient::Submit(ClassifyRequestMsg msg, Callback callback) {
  const uint64_t id = next_id_.fetch_add(1);
  submitted_.fetch_add(1);
  if (!started_.load() || stop_.load()) {
    Result<ClassifyResponseMsg> failed =
        Status::Unavailable("NetClient not running");
    CountOutcome(failed);
    callback(std::move(failed));
    return id;
  }

  const int64_t now = MonotonicUs();
  int64_t budget = options_.default_timeout_us;
  if (msg.deadline_unix_us > 0) {
    // The caller owns the deadline; our local timer mirrors what is left
    // of it. An already-expired request is enqueued anyway and expires on
    // the next timer pass — one code path for all expiries.
    budget = msg.deadline_unix_us - WallUs();
  } else {
    msg.deadline_unix_us = WallUs() + budget;
  }

  // The frame is encoded once, so every attempt carries the same id and
  // the same absolute deadline: a retry never extends the caller's budget.
  Pending pending;
  pending.frame =
      EncodeFrame(MessageType::kClassifyRequest, id, EncodeClassifyRequest(msg));
  pending.callback = std::move(callback);
  pending.deadline_us = now + budget;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (conn_.open() && !conn_.connecting) {
      pending.attempt = 1;
      conn_.outbound.append(pending.frame);
    } else {
      // No connection yet: leave attempt 0 and make the "retry" timer due
      // immediately; the first real send happens once the socket opens.
      pending.retry_at_us = now;
    }
    pending_.emplace(id, std::move(pending));
  }
  Wake();
  return id;
}

Result<ClassifyResponseMsg> NetClient::Classify(const ClassifyRequestMsg& msg) {
  std::mutex m;
  std::condition_variable cv;
  std::optional<Result<ClassifyResponseMsg>> out;
  Submit(msg, [&](Result<ClassifyResponseMsg> result) {
    std::lock_guard<std::mutex> lock(m);
    out.emplace(std::move(result));
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(m);
  cv.wait(lock, [&] { return out.has_value(); });
  return std::move(*out);
}

NetClientStats NetClient::Stats() const {
  NetClientStats stats;
  stats.submitted = submitted_.load();
  stats.ok = ok_.load();
  stats.shed = shed_.load();
  stats.deadline_exceeded = deadline_exceeded_.load();
  stats.transport_errors = transport_errors_.load();
  stats.other_errors = other_errors_.load();
  stats.retries = retries_.load();
  stats.reconnects = reconnects_.load();
  stats.timeouts = timeouts_.load();
  return stats;
}

void NetClient::Wake() {
  if (wake_fd_ < 0) return;
  uint64_t one = 1;
  ssize_t n = write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means a wakeup is already queued — good enough.
}

void NetClient::CountOutcome(const Result<ClassifyResponseMsg>& result) {
  StatusCode code = StatusCode::kOk;
  if (result.ok()) {
    if (result.value().ok) {
      ok_.fetch_add(1);
      return;
    }
    code = static_cast<StatusCode>(result.value().status_code);
  } else {
    code = result.status().code();
  }
  switch (code) {
    case StatusCode::kUnavailable:
      shed_.fetch_add(1);
      break;
    case StatusCode::kDeadlineExceeded:
      deadline_exceeded_.fetch_add(1);
      break;
    case StatusCode::kIoError:
      transport_errors_.fetch_add(1);
      break;
    default:
      other_errors_.fetch_add(1);
      break;
  }
}

void NetClient::StartConnect() {
  // Called with mutex_ held.
  conn_.fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (conn_.fd < 0) {
    ScheduleReconnect();
    return;
  }
  int one = 1;
  setsockopt(conn_.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseConn();
    return;  // bad host never becomes connectable; deadlines clean up
  }
  int rc = connect(conn_.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc == 0) {
    conn_.connecting = false;
    OnConnected();
  } else if (errno == EINPROGRESS) {
    conn_.connecting = true;
  } else {
    CloseConn();
    ScheduleReconnect();
  }
}

void NetClient::FinishConnect() {
  // Called with mutex_ held, after poll reported the socket writable.
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(conn_.fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    err = errno;
  }
  conn_.connecting = false;
  if (err != 0) {
    CloseConn();
    ScheduleReconnect();
    return;
  }
  OnConnected();
}

void NetClient::OnConnected() {
  // Called with mutex_ held.
  if (reconnect_attempt_ > 0) reconnects_.fetch_add(1);
  reconnect_attempt_ = 0;
  reconnect_at_us_ = 0;
}

void NetClient::ScheduleReconnect() {
  // Called with mutex_ held.
  reconnect_attempt_++;
  reconnect_at_us_ = MonotonicUs() + retry_.BackoffUs(reconnect_attempt_);
}

void NetClient::CloseConn() {
  // Called with mutex_ held.
  close(conn_.fd);
  conn_.fd = -1;
  conn_.connecting = false;
  conn_.decoder = FrameDecoder(kDefaultMaxPayload);
  conn_.outbound.clear();
  conn_.out_offset = 0;
}

void NetClient::IoMain() {
  int64_t timeout_ms = 0;
  std::vector<std::pair<Callback, Result<ClassifyResponseMsg>>> done;

  while (!stop_.load()) {
    pollfd fds[2];
    nfds_t nfds = 0;
    fds[nfds++] = {wake_fd_, POLLIN, 0};
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (conn_.open()) {
        short events = POLLIN;
        if (conn_.connecting || conn_.out_offset < conn_.outbound.size()) {
          events |= POLLOUT;
        }
        fds[nfds++] = {conn_.fd, events, 0};
      }
    }
    int rc = poll(fds, nfds, static_cast<int>(timeout_ms));
    if (rc < 0 && errno != EINTR) {
      FKD_LOG(Error) << "net client poll: " << std::strerror(errno);
    }
    if (fds[0].revents & POLLIN) {
      uint64_t drain;
      while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
    }

    done.clear();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Only the I/O thread opens or closes the socket, so the polled fd is
      // still conn_'s.
      const short revents = nfds > 1 ? fds[1].revents : 0;
      if (conn_.connecting) {
        if (revents & (POLLOUT | POLLERR | POLLHUP)) FinishConnect();
      } else if (conn_.open()) {
        // Read before any teardown: answers that arrived together with a
        // reset or a close are in the socket buffer and still count.
        if (revents & (POLLIN | POLLERR | POLLHUP)) HandleReadable(&done);
        if (conn_.open() && (revents & (POLLERR | POLLHUP))) {
          ConnLost(Status::IoError("connection error"), &done);
        }
        if (conn_.open() && (revents & POLLOUT)) FlushConn(&done);
      }
      timeout_ms = StepTimers(MonotonicUs(), &done);
    }
    for (auto& completion : done) {
      CountOutcome(completion.second);
      completion.first(std::move(completion.second));
    }
  }

  // Shutdown: fail whatever is still in flight, close the socket.
  done.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& entry : pending_) {
      done.emplace_back(std::move(entry.second.callback),
                        Status::Unavailable("NetClient stopped"));
    }
    pending_.clear();
    if (conn_.open()) CloseConn();
  }
  for (auto& completion : done) {
    CountOutcome(completion.second);
    completion.first(std::move(completion.second));
  }
}

int64_t NetClient::StepTimers(int64_t now_us, CompletionList* done) {
  // Called with mutex_ held.
  if (!conn_.open() && !conn_.connecting) {
    if (reconnect_at_us_ == 0 || now_us >= reconnect_at_us_) {
      StartConnect();
    }
  }

  int64_t next_us = now_us + kMaxPollMs * 1000;
  std::vector<uint64_t> expired;
  for (auto& entry : pending_) {
    Pending& p = entry.second;
    if (now_us >= p.deadline_us) {
      expired.push_back(entry.first);
      continue;
    }
    next_us = std::min(next_us, p.deadline_us);

    if (p.retry_at_us > 0) {
      if (conn_.open() && !conn_.connecting) {
        if (now_us >= p.retry_at_us) {
          if (p.attempt >= 1) retries_.fetch_add(1);
          p.attempt++;
          p.retry_at_us = 0;
          conn_.outbound.append(p.frame);
        } else {
          next_us = std::min(next_us, p.retry_at_us);
        }
      }
      // Connection down: the retry waits for the reconnect; connect
      // completion wakes the poll, kMaxPollMs bounds the wait otherwise.
    }
  }
  for (uint64_t id : expired) {
    auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    timeouts_.fetch_add(1);
    done->emplace_back(
        std::move(it->second.callback),
        Status::DeadlineExceeded(StrFormat(
            "request %llu missed its deadline after %d attempt(s)",
            static_cast<unsigned long long>(id), it->second.attempt)));
    pending_.erase(it);
  }

  if (!conn_.open() && !conn_.connecting && reconnect_at_us_ > 0) {
    next_us = std::min(next_us, reconnect_at_us_);
  }
  int64_t timeout_ms = (next_us - now_us + 999) / 1000;
  if (timeout_ms < 0) timeout_ms = 0;
  if (timeout_ms > kMaxPollMs) timeout_ms = kMaxPollMs;
  return timeout_ms;
}

void NetClient::FlushConn(CompletionList* done) {
  // Called with mutex_ held.
  while (conn_.out_offset < conn_.outbound.size()) {
    ssize_t n = send(conn_.fd, conn_.outbound.data() + conn_.out_offset,
                     conn_.outbound.size() - conn_.out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn_.out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    ConnLost(Status::IoError(StrFormat("write: %s", std::strerror(errno))),
             done);
    return;
  }
  conn_.outbound.clear();
  conn_.out_offset = 0;
}

void NetClient::HandleReadable(CompletionList* done) {
  // Called with mutex_ held.
  Status lost;
  char buf[kReadChunk];
  while (true) {
    ssize_t n = read(conn_.fd, buf, sizeof(buf));
    if (n > 0) {
      conn_.decoder.Append(buf, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    lost = n == 0 ? Status::Unavailable("server closed connection")
                  : Status::IoError(
                        StrFormat("read: %s", std::strerror(errno)));
    break;
  }

  // Deliver every complete frame before acting on EOF or an error, so the
  // retry policy only sees requests whose answers really are missing.
  Frame frame;
  bool ready = false;
  while (true) {
    Status status = conn_.decoder.Next(&frame, &ready);
    if (!status.ok()) {
      ConnLost(status, done);
      return;
    }
    if (!ready) break;
    switch (frame.type) {
      case MessageType::kClassifyResponse:
        HandleResponse(frame.request_id, frame.payload, done);
        break;
      case MessageType::kError: {
        auto decoded = DecodeControlResponse(frame.payload);
        Status reason =
            decoded.ok()
                ? Status(static_cast<StatusCode>(decoded.value().status_code),
                         decoded.value().message)
                : decoded.status();
        auto it = pending_.find(frame.request_id);
        if (it != pending_.end()) {
          if (reason.IsRetryable()) {
            RetryOrFail(frame.request_id, &it->second, reason, done);
          } else {
            done->emplace_back(std::move(it->second.callback), reason);
            pending_.erase(it);
          }
        }
        break;
      }
      default:
        break;  // pongs / control replies are not ours to route
    }
  }
  if (!lost.ok()) ConnLost(lost, done);
}

void NetClient::HandleResponse(uint64_t request_id, const std::string& payload,
                               CompletionList* done) {
  // Called with mutex_ held.
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // duplicate (retry) — first won

  auto decoded = DecodeClassifyResponse(payload);
  if (!decoded.ok()) {
    done->emplace_back(std::move(it->second.callback), decoded.status());
    pending_.erase(it);
    return;
  }
  ClassifyResponseMsg msg = std::move(decoded).value();
  if (!msg.ok) {
    // The one retry layer: any retryable answer (a shed, a failed batch) is
    // retried here, under the request's own deadline, exactly like the
    // retryable error frames above.
    const Status reason(static_cast<StatusCode>(msg.status_code),
                        msg.message);
    if (reason.IsRetryable()) {
      RetryOrFail(request_id, &it->second, reason, done);
      return;
    }
  }
  done->emplace_back(std::move(it->second.callback), std::move(msg));
  pending_.erase(it);
}

void NetClient::RetryOrFail(uint64_t id, Pending* pending, const Status& reason,
                            CompletionList* done) {
  // Called with mutex_ held. A retry keeps the request id: the server (or
  // a late duplicate response) cannot double-complete because the first
  // response erases the pending entry.
  const int64_t now = MonotonicUs();
  const int64_t delay =
      retry_.NextDelayUs(pending->attempt, now, pending->deadline_us);
  if (delay < 0) {
    done->emplace_back(std::move(pending->callback), reason);
    pending_.erase(id);
    return;
  }
  pending->retry_at_us = now + delay;
}

void NetClient::ConnLost(const Status& reason, CompletionList* done) {
  // Called with mutex_ held.
  CloseConn();
  ScheduleReconnect();
  FKD_LOG_EVERY_N(Warning, 16)
      << "net client lost connection to " << options_.host << ":"
      << options_.port << " (" << reason.ToString() << "), reconnecting";

  // Everything that was on the wire (sent, no answer, no retry scheduled)
  // goes back through the retry policy.
  std::vector<uint64_t> inflight;
  for (auto& entry : pending_) {
    if (entry.second.retry_at_us == 0) inflight.push_back(entry.first);
  }
  for (uint64_t id : inflight) {
    auto it = pending_.find(id);
    if (it != pending_.end()) RetryOrFail(id, &it->second, reason, done);
  }
}

}  // namespace net
}  // namespace fkd
