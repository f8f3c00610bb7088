#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace fkd {
namespace net {

namespace {

using obs::FlightEventType;

/// One epoll_wait batch; also the tick granularity of the idle sweep.
constexpr int kEpollTimeoutMs = 100;
constexpr size_t kMaxEpollEvents = 64;
constexpr size_t kReadChunk = 64 * 1024;

/// Final-flush budget per connection at shutdown: responses already in the
/// outbound buffer get this long to reach the socket before the fd closes.
constexpr int kShutdownFlushMs = 500;

/// How long accepts stay paused after EMFILE/ENFILE. Long enough that a
/// transient fd spike drains, short enough that the backlog (128) keeps
/// absorbing connect bursts in the meantime.
constexpr int64_t kAcceptPauseMs = 50;

/// Chaos shim: returns the armed action for a socket-layer site, kNone
/// when the injector is idle (one relaxed load on the hot path).
FaultAction NetFault(const char* site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return FaultAction::kNone;
  return injector.Hit(site);
}

Status ErrnoStatus(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Encodes a control-shaped reply (swap/canary responses, the kError
/// goodbye): the outcome's status, plus its value on success.
std::string EncodeControlReply(MessageType type, uint64_t request_id,
                               const Result<uint64_t>& outcome) {
  ControlResponseMsg msg;
  msg.ok = outcome.ok();
  if (outcome.ok()) {
    msg.value = outcome.value();
  } else {
    msg.status_code = static_cast<uint8_t>(outcome.status().code());
    msg.message = outcome.status().message();
  }
  return EncodeFrame(type, request_id, EncodeControlResponse(msg));
}

/// The event loop running on this thread (null off the loops). Output
/// queued from a connection's own loop needs no eventfd wakeup: that loop
/// flushes its pending writes at the end of the current iteration.
thread_local const void* tls_loop = nullptr;

}  // namespace

int64_t Server::NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Server::NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Server::WallNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

Server::Server(serve::Router* router, ServerOptions options)
    : router_(router), options_(std::move(options)) {
  FKD_CHECK(router_ != nullptr);
  FKD_CHECK_GT(options_.event_loops, 0u);
  FKD_CHECK_GT(options_.max_inflight, 0u);
  resolved_shed_depth_ =
      options_.shed_queue_depth > 0
          ? options_.shed_queue_depth
          : (3 * router_->options().num_replicas *
             router_->options().engine.max_queue_depth) / 4;
  if (resolved_shed_depth_ == 0) resolved_shed_depth_ = 1;

  recorder_ = &obs::FlightRecorder::Get();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  connections_gauge_ = registry.GetGauge("fkd.net.connections");
  connections_total_ = registry.GetCounter("fkd.net.connections_total");
  frames_in_total_ = registry.GetCounter("fkd.net.frames", {{"dir", "in"}});
  frames_out_total_ = registry.GetCounter("fkd.net.frames", {{"dir", "out"}});
  bytes_in_total_ = registry.GetCounter("fkd.net.bytes", {{"dir", "in"}});
  bytes_out_total_ = registry.GetCounter("fkd.net.bytes", {{"dir", "out"}});
  shed_total_ = registry.GetCounter("fkd.net.shed");
  deadline_shed_total_ = registry.GetCounter("fkd.net.deadline_shed");
  accept_pauses_total_ = registry.GetCounter("fkd.net.accept_pauses");
  protocol_errors_total_ = registry.GetCounter("fkd.net.protocol_errors");
  idle_closed_total_ = registry.GetCounter("fkd.net.idle_closed");
  responses_dropped_total_ = registry.GetCounter("fkd.net.responses_dropped");
  inflight_gauge_ = registry.GetGauge("fkd.net.inflight");
  request_us_ = registry.GetHistogram("fkd.net.request_us");
}

Server::~Server() { Shutdown(); }

Server::EventLoop::~EventLoop() {
  if (epoll_fd >= 0) ::close(epoll_fd);
  if (wake_fd >= 0) ::close(wake_fd);
}

Status Server::Start() {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return ErrnoStatus("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        StrFormat("bad bind address \"%s\" (numeric IPv4 only)",
                  options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const Status status = ErrnoStatus("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status = ErrnoStatus("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }

  loops_.reserve(options_.event_loops);
  for (size_t i = 0; i < options_.event_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      return ErrnoStatus("epoll_create1/eventfd");
    }
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &event);
    if (i == 0) {
      event.data.fd = listen_fd_;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &event);
    }
    loops_.push_back(std::move(loop));
  }
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { LoopMain(i); });
  }
  control_thread_ = std::thread([this] { ControlMain(); });

  recorder_->Record(FlightEventType::kServerStart,
                    static_cast<uint64_t>(bound_port_), options_.event_loops);
  FKD_LOG(Info) << "net server listening on " << options_.host << ":"
                << bound_port_ << " (" << options_.event_loops
                << " event loops, max_inflight " << options_.max_inflight
                << ", shed at engine queue depth " << resolved_shed_depth_
                << ")";
  return Status::OK();
}

void Server::WakeLoop(EventLoop* loop) {
  // Chaos site net.eventfd: a dropped wakeup write. The loop must still
  // make progress via its bounded epoll_wait timeout — a lost wakeup may
  // only ever cost latency, never liveness.
  if (NetFault("net.eventfd") != FaultAction::kNone) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(loop->wake_fd, &one, sizeof(one));
}

// ---- accept path -------------------------------------------------------------

void Server::PauseAccept(EventLoop* loop, int error) {
  // accept4() failed without consuming the backlog entry, so retrying
  // immediately (the pre-PR-8 `continue`) hot-spins: the listen fd stays
  // readable and every accept fails the same way until an fd frees up.
  // Instead, step away: unregister the listen socket for a brief pause and
  // let loop 0 re-arm it afterwards (see LoopMain).
  accept_pauses_.fetch_add(1, std::memory_order_relaxed);
  accept_pauses_total_->Increment();
  recorder_->Record(FlightEventType::kNetAcceptPause,
                    accept_pauses_.load(std::memory_order_relaxed),
                    static_cast<uint64_t>(kAcceptPauseMs));
  FKD_LOG_EVERY_N(Warning, 16)
      << "accept failed: " << std::strerror(error) << "; pausing accepts for "
      << kAcceptPauseMs << "ms (rate-limited: 1 in 16 logged)";
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
  accept_paused_ = true;
  accept_resume_ms_ = NowMs() + kAcceptPauseMs;
}

void Server::HandleAccept(EventLoop* loop) {
  for (;;) {
    // Chaos site net.accept: simulated fd exhaustion. Checked before the
    // accept4 so, like real EMFILE, the backlog entry is not consumed.
    if (NetFault("net.accept") != FaultAction::kNone) {
      PauseAccept(loop, EMFILE);
      return;
    }
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        PauseAccept(loop, errno);
        return;
      }
      return;  // listen socket closed mid-drain or fatal: stop accepting
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      over_capacity_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const size_t target =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    if (loops_[target].get() == loop) {
      RegisterConnection(loop, fd);
    } else {
      {
        std::lock_guard<std::mutex> lock(loops_[target]->mutex);
        loops_[target]->pending_accepts.push_back(fd);
      }
      WakeLoop(loops_[target].get());
    }
  }
}

void Server::AdoptPendingAccepts(EventLoop* loop) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    fds.swap(loop->pending_accepts);
  }
  for (int fd : fds) RegisterConnection(loop, fd);
}

void Server::RegisterConnection(EventLoop* loop, int fd) {
  auto conn = std::make_shared<Connection>(options_.max_payload_bytes);
  conn->fd = fd;
  conn->id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < loops_.size(); ++i) {
    if (loops_[i].get() == loop) conn->loop = i;
  }
  conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  if (::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
    ::close(fd);
    return;
  }
  loop->connections.emplace(fd, conn);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  connections_total_->Increment();
  const size_t active =
      active_connections_.fetch_add(1, std::memory_order_relaxed) + 1;
  connections_gauge_->Set(static_cast<double>(active));
  recorder_->Record(FlightEventType::kConnAccept, conn->id, conn->loop);
}

// ---- read path ---------------------------------------------------------------

void Server::HandleReadable(EventLoop* loop, const ConnectionPtr& conn) {
  // Chaos site net.ready: defer this readable event one epoll tick. The
  // socket stays armed level-triggered, so the next epoll_wait re-delivers
  // it — a deterministic stand-in for delayed readiness.
  if (NetFault("net.ready") != FaultAction::kNone) return;
  // Chaos site net.recv: the kernel reports a reset (RST) mid-stream.
  if (NetFault("net.recv") != FaultAction::kNone) {
    CloseConnection(loop, conn, "injected connection reset");
    return;
  }
  char chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n), std::memory_order_relaxed);
      bytes_in_total_->Increment(static_cast<double>(n));
      conn->last_activity_ms.store(NowMs(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        if (conn->want_close) continue;  // draining a doomed connection
      }
      conn->decoder.Append(chunk, static_cast<size_t>(n));
      for (;;) {
        Frame frame;
        bool ready = false;
        const Status status = conn->decoder.Next(&frame, &ready);
        if (!status.ok()) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          protocol_errors_total_->Increment();
          recorder_->Record(FlightEventType::kNetProtocolError, conn->id, 0);
          FKD_LOG_EVERY_N(Warning, 16)
              << "connection " << conn->id
              << ": protocol error: " << status.message()
              << " (rate-limited: 1 in 16 logged)";
          // Best-effort goodbye, then close once (if ever) it flushes. The
          // stream has lost framing, so no further frames are decoded.
          EnqueueOutput(conn,
                        EncodeControlReply(MessageType::kError, 0, status));
          {
            std::lock_guard<std::mutex> lock(conn->out_mutex);
            conn->want_close = true;
          }
          FlushOutput(loop, conn);
          return;
        }
        if (!ready) break;
        frames_in_.fetch_add(1, std::memory_order_relaxed);
        frames_in_total_->Increment();
        HandleFrame(loop, conn, std::move(frame));
      }
      // Slow-loris clock: stamps when a partial frame starts buffering and
      // only clears when it completes, so a dribbling client cannot reset
      // it by sending one more byte.
      if (conn->decoder.buffered() == 0) {
        conn->frame_start_ms.store(0, std::memory_order_relaxed);
      } else if (conn->frame_start_ms.load(std::memory_order_relaxed) == 0) {
        conn->frame_start_ms.store(NowMs(), std::memory_order_relaxed);
      }
      continue;
    }
    if (n == 0) {  // peer closed; in-flight work resolves as dropped
      CloseConnection(loop, conn, "peer closed");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConnection(loop, conn, "read error");
    return;
  }
}

// ---- frame dispatch ----------------------------------------------------------

void Server::HandleFrame(EventLoop* loop, const ConnectionPtr& conn,
                         Frame frame) {
  switch (frame.type) {
    case MessageType::kPing:
      EnqueueOutput(conn, EncodeFrame(MessageType::kPong, frame.request_id,
                                      frame.payload));
      return;
    case MessageType::kClassifyRequest:
      classify_frames_.fetch_add(1, std::memory_order_relaxed);
      HandleClassify(conn, frame);
      return;
    case MessageType::kSwapRequest:
    case MessageType::kCanaryRequest:
      HandleControl(conn, frame);
      return;
    default:
      // Response types (or unknown types) arriving from a client are a
      // protocol violation: kill the connection like any other.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      protocol_errors_total_->Increment();
      recorder_->Record(FlightEventType::kNetProtocolError, conn->id,
                        static_cast<uint64_t>(frame.type));
      CloseConnection(loop, conn, "unexpected frame type");
      return;
  }
}

void Server::HandleControl(const ConnectionPtr& conn, const Frame& frame) {
  const bool is_swap = frame.type == MessageType::kSwapRequest;
  const MessageType reply_type =
      is_swap ? MessageType::kSwapResponse : MessageType::kCanaryResponse;
  const uint64_t request_id = frame.request_id;
  // A control frame holds an in-flight slot until its reply is queued, so
  // the drain waits for it; the slot is taken before draining_ is read,
  // for the reason given in HandleClassify.
  inflight_.fetch_add(1);
  Result<uint32_t> permille = is_swap ? Result<uint32_t>(0u)
                                      : DecodeCanaryRequest(frame.payload);
  Status refusal = permille.status();
  if (draining_.load()) {
    refusal = Status::Unavailable("server draining");
  } else if (is_swap ? !options_.swap_handler : !options_.canary_handler) {
    refusal = Status::Unimplemented(is_swap ? "no swap handler configured"
                                            : "no canary handler configured");
  }
  if (!refusal.ok()) {
    EnqueueOutput(conn, EncodeControlReply(reply_type, request_id, refusal));
    ReleaseSlot();
    return;
  }
  // The handler blocks for a whole swap, so it runs on the control thread.
  // (A reply whose connection died first is not tracked: the client is
  // gone and control frames are outside the classify accounting.)
  auto task = [this, conn, is_swap, permille = permille.value(), reply_type,
               request_id] {
    const Result<uint64_t> outcome = is_swap
                                         ? options_.swap_handler()
                                         : options_.canary_handler(permille);
    if (is_swap && outcome.ok()) swaps_.fetch_add(1, std::memory_order_relaxed);
    EnqueueOutput(conn, EncodeControlReply(reply_type, request_id, outcome));
    ReleaseSlot();
  };
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_queue_.push_back(std::move(task));
  }
  control_cv_.notify_one();
}

void Server::ControlMain() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(control_mutex_);
      control_cv_.wait(lock, [this] { return !control_queue_.empty(); });
      task = std::move(control_queue_.front());
      control_queue_.pop_front();
    }
    if (!task) return;  // Shutdown's sentinel: everything before it ran
    task();
  }
}

Status Server::Admit(uint64_t request_id, const ClassifyRequestMsg& msg,
                     size_t inflight_now, int64_t* remaining_budget_us) {
  const auto shed = [&](FlightEventType event, uint64_t detail,
                        Status status) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_total_->Increment();
    recorder_->Record(event, request_id, detail);
    return status;
  };
  // Cheapest test first.
  if (draining_.load()) {
    return shed(FlightEventType::kNetShed, 0,
                Status::Unavailable("server draining"));
  }
  // Deadline propagation: a request whose absolute deadline has already
  // passed is answered DeadlineExceeded right here — it never reaches
  // Router::Submit, so expired work is refused, not silently computed.
  // Survivors carry their *remaining* budget into the engine.
  *remaining_budget_us = 0;  // 0 = no absolute deadline
  if (msg.deadline_unix_us > 0) {
    *remaining_budget_us = msg.deadline_unix_us - WallNowUs();
    if (*remaining_budget_us <= 0) {
      const auto late_us = static_cast<uint64_t>(-*remaining_budget_us);
      deadline_shed_.fetch_add(1, std::memory_order_relaxed);
      deadline_shed_total_->Increment();
      return shed(FlightEventType::kNetDeadlineShed, late_us,
                  Status::DeadlineExceeded(StrFormat(
                      "deadline expired %lldus before admission",
                      static_cast<long long>(late_us))));
    }
  }
  // Bounded in-flight budget: the one knob that caps the server's queued
  // work no matter how many connections pile on.
  if (inflight_now > options_.max_inflight) {
    return shed(FlightEventType::kNetShed, inflight_now,
                Status::Unavailable(StrFormat(
                    "server at capacity (%zu requests in flight)",
                    inflight_now - 1)));
  }
  // Queue-depth-aware early shed: when the engines are already saturated,
  // refusing here is strictly better than queueing work the deadline will
  // kill anyway. The client retries the shed under its own budget.
  const size_t engine_depth = router_->QueueDepth();
  if (engine_depth >= resolved_shed_depth_) {
    return shed(FlightEventType::kNetShed, engine_depth,
                Status::Unavailable(StrFormat(
                    "engine queues saturated (depth %zu >= %zu)",
                    engine_depth, resolved_shed_depth_)));
  }
  return Status::OK();
}

void Server::HandleClassify(const ConnectionPtr& conn, const Frame& frame) {
  // Every classify frame holds an in-flight slot from here until
  // FinishClassify answers it. The slot is taken before draining_ is read;
  // both are sequentially consistent, as are Shutdown's store of draining_
  // and its later reads of inflight_. So either this frame sees the drain
  // and is shed, or Shutdown sees the slot and waits for the answer.
  const int64_t t0_us = NowUs();
  const uint64_t request_id = frame.request_id;
  conn->inflight.fetch_add(1, std::memory_order_acq_rel);
  const size_t inflight_now = inflight_.fetch_add(1) + 1;

  // A malformed body in a frame that checksummed clean leaves the stream
  // in sync, so it is answered with an error instead of killing the socket.
  Result<ClassifyRequestMsg> decoded = DecodeClassifyRequest(frame.payload);
  Status status = decoded.status();
  int64_t remaining_budget_us = 0;
  if (status.ok()) {
    status = Admit(request_id, decoded.value(), inflight_now,
                   &remaining_budget_us);
  }
  if (status.ok()) {
    inflight_gauge_->Set(static_cast<double>(inflight_now));
    serve::ArticleRequest request;
    request.text = std::move(decoded.value().text);
    request.creator_id = decoded.value().creator_id;
    request.subject_ids = std::move(decoded.value().subject_ids);
    request.deadline_us = decoded.value().deadline_us;
    if (remaining_budget_us > 0) {
      // Score against what is left of the client's budget, not a fresh
      // server default; a relative budget, when also present, can only
      // tighten it further.
      request.deadline_us = request.deadline_us > 0
                                ? std::min(request.deadline_us,
                                           remaining_budget_us)
                                : remaining_budget_us;
    }
    // A cache hit runs the callback inside Submit, on this loop; a miss
    // runs it later on the engine worker that computed the result.
    status = router_->Submit(
        std::move(request),
        [this, conn, request_id, t0_us](Result<serve::Classification> result) {
          FinishClassify(conn, request_id, t0_us, result);
        });
  }
  if (!status.ok()) FinishClassify(conn, request_id, t0_us, status);
}

void Server::FinishClassify(const ConnectionPtr& conn, uint64_t request_id,
                            int64_t t0_us,
                            const Result<serve::Classification>& result) {
  const std::string response =
      EncodeFrame(MessageType::kClassifyResponse, request_id,
                  EncodeClassifyResponse(ClassifyResponseFromResult(result)));
  // A classify response counts exactly once: ok/error as it joins the
  // connection's output queue, dropped when the connection died first. The
  // shutdown invariant classify_frames == ok + error + dropped depends on
  // these being disjoint.
  if (!EnqueueOutput(conn, response,
                     result.ok() ? &responses_ok_ : &responses_error_)) {
    responses_dropped_.fetch_add(1, std::memory_order_relaxed);
    responses_dropped_total_->Increment();
  }
  request_us_->Observe(static_cast<double>(NowUs() - t0_us));
  conn->inflight.fetch_sub(1, std::memory_order_acq_rel);
  ReleaseSlot();
}

void Server::ReleaseSlot() {
  // The last touch of server state by a callback: once the drain sees zero,
  // Shutdown may tear the server down.
  const size_t left = inflight_.fetch_sub(1) - 1;
  inflight_gauge_->Set(static_cast<double>(left));
  if (left == 0 && draining_.load()) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drain_cv_.notify_all();
  }
}

// ---- write path --------------------------------------------------------------

bool Server::EnqueueOutput(const ConnectionPtr& conn,
                           const std::string& bytes,
                           std::atomic<uint64_t>* sent) {
  if (conn->closed.load(std::memory_order_acquire)) return false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->closed.load(std::memory_order_acquire)) return false;
    conn->outbound.append(bytes);
    if (sent != nullptr) sent->fetch_add(1, std::memory_order_relaxed);
  }
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  frames_out_total_->Increment();
  EventLoop* loop = loops_[conn->loop].get();
  {
    std::lock_guard<std::mutex> lock(loop->mutex);
    loop->pending_writes.push_back(conn);
  }
  if (tls_loop != loop) WakeLoop(loop);
  return true;
}

void Server::FlushOutput(EventLoop* loop, const ConnectionPtr& conn) {
  if (conn->closed.load(std::memory_order_acquire)) return;
  bool close_after = false;
  bool blocked = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (conn->out_offset < conn->outbound.size()) {
      // Chaos site net.send: fail = the write errors outright (EPIPE);
      // torn = half the pending bytes reach the wire, then the connection
      // dies mid-frame — the peer is left holding a torn partial frame.
      const FaultAction send_fault = NetFault("net.send");
      if (send_fault != FaultAction::kNone) {
        if (send_fault == FaultAction::kTorn) {
          const size_t part = (conn->outbound.size() - conn->out_offset) / 2;
          const ssize_t torn =
              part == 0 ? 0
                        : ::send(conn->fd,
                                 conn->outbound.data() + conn->out_offset,
                                 part, MSG_NOSIGNAL);
          if (torn > 0) {
            conn->out_offset += static_cast<size_t>(torn);
            bytes_out_.fetch_add(static_cast<uint64_t>(torn),
                                 std::memory_order_relaxed);
            bytes_out_total_->Increment(static_cast<double>(torn));
          }
        }
        close_after = true;
        break;
      }
      // MSG_NOSIGNAL: a peer reset between two sends is an EPIPE to
      // handle here, not a SIGPIPE that kills the process.
      const ssize_t n =
          ::send(conn->fd, conn->outbound.data() + conn->out_offset,
                 conn->outbound.size() - conn->out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_offset += static_cast<size_t>(n);
        bytes_out_.fetch_add(static_cast<uint64_t>(n),
                             std::memory_order_relaxed);
        bytes_out_total_->Increment(static_cast<double>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        blocked = true;
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      close_after = true;  // broken pipe etc.
      break;
    }
    if (conn->out_offset == conn->outbound.size()) {
      // Frame accounting at flush completion keeps frames_out meaning
      // "fully written", which the shutdown invariant relies on.
      conn->outbound.clear();
      conn->out_offset = 0;
      if (conn->want_close) close_after = true;
    }
  }
  if (close_after) {
    CloseConnection(loop, conn, "flush finished/failed");
    return;
  }
  epoll_event event{};
  event.data.fd = conn->fd;
  event.events = blocked ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &event);
}

void Server::HandleWritable(EventLoop* loop, const ConnectionPtr& conn) {
  FlushOutput(loop, conn);
}

void Server::CloseConnection(EventLoop* loop, const ConnectionPtr& conn,
                             const char* reason, bool from_idle_sweep) {
  if (conn->closed.exchange(true, std::memory_order_acq_rel)) return;
  {
    // Serialise with a callback mid-EnqueueOutput: after this block, any
    // EnqueueOutput observes closed and reports the response as dropped.
    std::lock_guard<std::mutex> lock(conn->out_mutex);
  }
  ::close(conn->fd);
  loop->connections.erase(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  if (from_idle_sweep) {
    idle_closed_.fetch_add(1, std::memory_order_relaxed);
    idle_closed_total_->Increment();
  }
  const size_t active =
      active_connections_.fetch_sub(1, std::memory_order_relaxed) - 1;
  connections_gauge_->Set(static_cast<double>(active));
  recorder_->Record(FlightEventType::kConnClose, conn->id,
                    from_idle_sweep ? 1 : 0);
  FKD_LOG_EVERY_N(Info, 64) << "connection " << conn->id << " closed ("
                            << reason << ") (rate-limited: 1 in 64 logged)";
}

// ---- idle / slow-loris sweep -------------------------------------------------

void Server::SweepIdle(EventLoop* loop, int64_t now_ms) {
  if (options_.idle_timeout_ms <= 0) return;
  std::vector<ConnectionPtr> doomed;
  for (const auto& [fd, conn] : loop->connections) {
    const int64_t last =
        conn->last_activity_ms.load(std::memory_order_relaxed);
    const int64_t frame_start =
        conn->frame_start_ms.load(std::memory_order_relaxed);
    // Idle: nothing read for the whole timeout. Slow loris: bytes do
    // arrive, but a frame begun a full timeout ago still has not
    // completed — dripping one byte at a time must not hold a slot open.
    const bool idle = now_ms - last > options_.idle_timeout_ms;
    const bool loris =
        frame_start != 0 && now_ms - frame_start > options_.idle_timeout_ms;
    if ((idle || loris) &&
        conn->inflight.load(std::memory_order_acquire) == 0) {
      doomed.push_back(conn);
    }
  }
  for (const auto& conn : doomed) {
    CloseConnection(loop, conn, "idle timeout", /*from_idle_sweep=*/true);
  }
}

// ---- event loop --------------------------------------------------------------

void Server::LoopMain(size_t index) {
  EventLoop* loop = loops_[index].get();
  tls_loop = loop;
  epoll_event events[kMaxEpollEvents];
  bool listening = index == 0;
  int64_t last_sweep_ms = NowMs();

  while (!stop_.load(std::memory_order_acquire)) {
    // Drain owns the listen socket teardown: the loop thread closes it so
    // no other thread races a live accept() on a recycled fd.
    if (listening && draining_.load(std::memory_order_acquire)) {
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listening = false;
    }
    // End of an EMFILE/ENFILE accept pause: put the listen socket back in
    // the interest set and resume accepting.
    if (listening && accept_paused_ && NowMs() >= accept_resume_ms_) {
      epoll_event event{};
      event.events = EPOLLIN;
      event.data.fd = listen_fd_;
      ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &event);
      accept_paused_ = false;
    }

    const int n = ::epoll_wait(loop->epoll_fd, events, kMaxEpollEvents,
                               kEpollTimeoutMs);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop->wake_fd) {
        uint64_t drained;
        while (::read(loop->wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (listening && fd == listen_fd_) {
        HandleAccept(loop);
        continue;
      }
      auto it = loop->connections.find(fd);
      if (it == loop->connections.end()) continue;
      ConnectionPtr conn = it->second;  // keep alive across close
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(loop, conn, "hangup");
        continue;
      }
      if (events[i].events & EPOLLIN) HandleReadable(loop, conn);
      if (!conn->closed.load(std::memory_order_acquire) &&
          (events[i].events & EPOLLOUT)) {
        HandleWritable(loop, conn);
      }
    }

    // Adopt fresh accepts; flush responses queued by this iteration's
    // frames and by other threads.
    AdoptPendingAccepts(loop);
    std::vector<ConnectionPtr> writable;
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      writable.swap(loop->pending_writes);
    }
    for (const auto& conn : writable) {
      if (!conn->closed.load(std::memory_order_acquire)) {
        FlushOutput(loop, conn);
      }
    }

    const int64_t now_ms = NowMs();
    if (now_ms - last_sweep_ms >= kEpollTimeoutMs) {
      SweepIdle(loop, now_ms);
      last_sweep_ms = now_ms;
    }
  }

  // A fast Shutdown (nothing in flight) can set stop_ before this loop
  // re-entered the while condition, skipping the draining branch above —
  // tear the listen socket down here in that case.
  if (listening && listen_fd_ >= 0) {
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Shutdown: give every connection's buffered responses a bounded final
  // flush (they were enqueued before the drain completed), then close.
  std::vector<ConnectionPtr> remaining;
  remaining.reserve(loop->connections.size());
  for (const auto& [fd, conn] : loop->connections) remaining.push_back(conn);
  for (const auto& conn : remaining) {
    const int64_t deadline_ms = NowMs() + kShutdownFlushMs;
    for (;;) {
      bool pending;
      {
        std::lock_guard<std::mutex> lock(conn->out_mutex);
        pending = conn->out_offset < conn->outbound.size();
      }
      if (!pending || conn->closed.load(std::memory_order_acquire)) break;
      if (NowMs() >= deadline_ms) break;
      pollfd pfd{conn->fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 10) < 0 && errno != EINTR) break;
      FlushOutput(loop, conn);
    }
    CloseConnection(loop, conn, "server shutdown");
  }
  tls_loop = nullptr;
}

// ---- shutdown ----------------------------------------------------------------

void Server::Shutdown() {
  if (!started_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
  draining_.store(true);  // seq_cst: see HandleClassify
  if (loops_.empty()) return;  // already torn down
  FKD_LOG(Info) << "net server draining: " << inflight_.load()
                << " requests in flight, "
                << active_connections_.load(std::memory_order_relaxed)
                << " connections";

  // 1. In-flight work resolves and its responses reach the loops, which
  // keep flushing; new classifies are shed.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait_for(lock, std::chrono::seconds(30),
                       [this] { return inflight_.load() == 0; });
  }
  // 2. Stop the loops: each flushes buffered responses, then closes its
  // connections (see LoopMain epilogue). The control thread then finishes
  // whatever is queued ahead of the sentinel.
  stop_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    WakeLoop(loop.get());
    if (loop->thread.joinable()) loop->thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_queue_.emplace_back();
  }
  control_cv_.notify_one();
  if (control_thread_.joinable()) control_thread_.join();
  // 3. Only a request that outlived step 1's bound can still be in flight.
  // Its connection is closed, so its callback just counts it as dropped,
  // but it must run before the loops and the server go away.
  {
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [this] { return inflight_.load() == 0; });
  }
  loops_.clear();
  connections_gauge_->Set(0.0);
  inflight_gauge_->Set(0.0);
  recorder_->Record(FlightEventType::kServerStop,
                    responses_dropped_.load(std::memory_order_relaxed), 0);
  FKD_LOG(Info) << "net server stopped: "
                << classify_frames_.load(std::memory_order_relaxed)
                << " classifies ("
                << responses_ok_.load(std::memory_order_relaxed) << " ok, "
                << responses_error_.load(std::memory_order_relaxed)
                << " error, "
                << responses_dropped_.load(std::memory_order_relaxed)
                << " dropped on dead connections)";
}

ServerStats Server::Stats() const {
  ServerStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.closed = closed_.load(std::memory_order_relaxed);
  stats.idle_closed = idle_closed_.load(std::memory_order_relaxed);
  stats.over_capacity = over_capacity_.load(std::memory_order_relaxed);
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  stats.classify_frames = classify_frames_.load(std::memory_order_relaxed);
  stats.responses_ok = responses_ok_.load(std::memory_order_relaxed);
  stats.responses_error = responses_error_.load(std::memory_order_relaxed);
  stats.responses_dropped =
      responses_dropped_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  stats.accept_pauses = accept_pauses_.load(std::memory_order_relaxed);
  stats.swaps = swaps_.load(std::memory_order_relaxed);
  stats.active_connections =
      active_connections_.load(std::memory_order_relaxed);
  stats.inflight = inflight_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace net
}  // namespace fkd
