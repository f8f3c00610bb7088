#ifndef FKD_NET_SERVER_H_
#define FKD_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/router.h"

namespace fkd {
namespace net {

/// Tuning knobs of the network front end.
struct ServerOptions {
  /// Bind address. 0.0.0.0 serves externally; the default stays loopback.
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via bound_port()).
  int port = 0;
  /// Event-loop threads. Connections are assigned round-robin at accept;
  /// each connection lives on one loop for its whole life (no migration,
  /// no cross-loop locking on the read path).
  size_t event_loops = 2;
  /// Accepted connections beyond this are closed immediately.
  size_t max_connections = 1024;
  /// Admission budget: classify frames beyond this many in flight across
  /// the whole server are shed with Unavailable before touching the Router.
  size_t max_inflight = 256;
  /// Early shedding: classify frames are also shed while the Router's
  /// aggregate engine queue depth is at or beyond this. 0 derives
  /// 3/4 * num_replicas * max_queue_depth from the router options.
  size_t shed_queue_depth = 0;
  /// Connections idle (or dribbling an incomplete frame — slow loris) for
  /// longer than this are closed. <= 0 disables the sweep.
  int64_t idle_timeout_ms = 60000;
  /// Per-frame payload ceiling (see FrameDecoder).
  size_t max_payload_bytes = kDefaultMaxPayload;
  /// Invoked on a kSwapRequest frame: load + publish a new model version,
  /// return its id. Runs on the server's one control thread (off the event
  /// loops), so it may block for the duration of the swap; control frames
  /// run one at a time, in arrival order. Null rejects the frame.
  std::function<Result<uint64_t>()> swap_handler;
  /// Invoked on a kCanaryRequest frame with the requested traffic permille
  /// (0 = stop the canary); returns the canary version. Runs on the
  /// control thread like swap_handler. Null rejects.
  std::function<Result<uint64_t>(uint32_t permille)> canary_handler;
};

/// Monotone counters describing a server's lifetime so far. Accounting
/// invariant (asserted by the shutdown tests): every classify frame read
/// off a socket resolves exactly one way,
///   classify_frames == responses_ok + responses_error + responses_dropped
/// where `responses_dropped` counts results whose connection had already
/// gone away — never silently: FinishClassify observes the closed
/// connection and counts it.
struct ServerStats {
  uint64_t accepted = 0;           ///< Connections accepted.
  uint64_t closed = 0;             ///< Connections closed (any reason).
  uint64_t idle_closed = 0;        ///< ... of which by the idle sweep.
  uint64_t over_capacity = 0;      ///< Accepts refused (max_connections).
  uint64_t frames_in = 0;          ///< Clean frames decoded.
  uint64_t frames_out = 0;         ///< Frames written to sockets.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;    ///< Poisoned decoders (connection killed).
  uint64_t classify_frames = 0;    ///< Classify requests decoded.
  uint64_t responses_ok = 0;       ///< Classify responses carrying a result.
  uint64_t responses_error = 0;    ///< Classify responses carrying an error.
  uint64_t responses_dropped = 0;  ///< Results whose connection had closed.
  uint64_t shed = 0;               ///< Classifies refused by admission.
  uint64_t deadline_shed = 0;      ///< ... of which expired before admission.
  uint64_t accept_pauses = 0;      ///< EMFILE/ENFILE accept pauses taken.
  uint64_t swaps = 0;              ///< Successful swap frames served.
  size_t active_connections = 0;
  size_t inflight = 0;  ///< Classify + control frames not yet answered.
};

/// Non-blocking epoll front end speaking the FKDN/1 frame protocol over
/// TCP, feeding the serving Router.
///
/// Threads: one event loop per `event_loops` (loop 0 also owns the listen
/// socket) plus one control thread for swap/canary frames. The read path
/// runs entirely on the connection's event loop: drain the socket, feed
/// the incremental FrameDecoder, dispatch each frame. A classify frame
/// passes **admission control** — server draining? in-flight budget
/// exhausted? router queue depth beyond the shed threshold? — and only
/// then becomes a Router::Submit with a completion callback. Results are
/// pushed, never waited for: the callback (FinishClassify) encodes the
/// response into the connection's outbound buffer wherever the result
/// appears. A cache hit completes inside Submit on the connection's own
/// loop, so its bytes leave at the end of the current loop iteration with
/// no thread handoff; an engine result is encoded on the worker that
/// computed it and handed to the owning loop through its pending-writes
/// list + an eventfd wakeup. The engines resolve every accepted request
/// (completed, deadline-expired, failed or drained), so every admitted
/// classify is answered. Shed and refused requests are answered inline
/// with an error-carrying ClassifyResponse — load shedding is explicit,
/// never a silent drop or a hang.
///
/// Robustness: the frame header is CRC-gated before its length prefix is
/// trusted; any protocol violation poisons the connection's decoder and
/// closes it (after a best-effort kError frame) without touching its
/// neighbours; the idle sweep kills both silent connections and slow-loris
/// drips that never complete a frame; a client disconnect with requests in
/// flight is absorbed — the completion callback observes the closed
/// connection and counts the response as dropped instead of writing to a
/// dead socket. Sockets are written with MSG_NOSIGNAL, so a peer reset is
/// an error on that connection, never a process-killing SIGPIPE.
///
/// Shutdown() is graceful: stop accepting, answer new classifies with
/// Unavailable, wait for every in-flight classify to resolve and its
/// response to flush, then close connections and join all threads. It
/// returns only once no completion callback can still run. No accepted
/// request is silently dropped (ServerStats invariant above).
///
/// Deterministic network chaos: every socket-layer failure branch is
/// reachable in-process through FKD_FAULTS sites consulted on the hot
/// paths (free when no rules are armed):
///   net.accept   — accept() reports fd exhaustion (EMFILE path + pause)
///   net.recv     — read() reports a connection reset (RST) mid-stream
///   net.send     — write() fails (fail) or tears mid-frame (torn), then
///                  the connection closes as if the peer vanished
///   net.ready    — a readable event is deferred one epoll tick
///                  (delayed readiness; level-triggered epoll re-delivers)
///   net.eventfd  — a cross-thread loop wakeup write is dropped; the loop
///                  must recover via its epoll timeout, never hang
///
/// Instrumentation (obs::MetricsRegistry::Default()): fkd.net.connections
/// gauge, fkd.net.connections_total / frames{dir} / bytes{dir} / shed /
/// protocol_errors / idle_closed / responses_dropped counters,
/// fkd.net.inflight gauge and the fkd.net.request_us histogram (classify
/// frame decode -> response enqueue, shed answers included), all flowing
/// through the StatsExporter into fkd_obstop.
class Server {
 public:
  Server(serve::Router* router, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the loop + control threads. One Start per
  /// server.
  Status Start();

  /// Graceful shutdown (see class comment). Idempotent, and implied by the
  /// destructor.
  void Shutdown();

  /// Port actually bound (resolves port 0); valid after Start().
  int bound_port() const { return bound_port_; }

  ServerStats Stats() const;
  const ServerOptions& options() const { return options_; }

 private:
  struct Connection {
    int fd = -1;
    size_t loop = 0;
    uint64_t id = 0;  ///< accept sequence number (diagnostics)
    FrameDecoder decoder;
    /// Guards outbound + want_close. Written by the loop, engine workers
    /// (completion callbacks) and the control thread.
    std::mutex out_mutex;
    std::string outbound;   ///< encoded frames waiting for the socket
    size_t out_offset = 0;  ///< bytes of outbound already written
    bool want_close = false;  ///< close once outbound drains
    std::atomic<bool> closed{false};
    /// Classify responses still owed to this connection.
    std::atomic<uint32_t> inflight{0};
    /// steady-clock ms of the last byte read (idle sweep).
    std::atomic<int64_t> last_activity_ms{0};
    /// steady-clock ms when the pending partial frame started arriving;
    /// 0 = no partial frame (slow-loris sweep).
    std::atomic<int64_t> frame_start_ms{0};

    explicit Connection(size_t max_payload) : decoder(max_payload) {}
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// One epoll event-loop thread's state.
  struct EventLoop {
    int epoll_fd = -1;
    /// eventfd: other threads -> loop (accepts, pending writes, stop).
    /// Both fds close with the loop, after every callback has run.
    int wake_fd = -1;
    std::thread thread;
    /// Connections owned by this loop; only its thread touches the map.
    std::unordered_map<int, ConnectionPtr> connections;
    /// Guarded by mutex: freshly accepted fds, and connections with newly
    /// queued outbound bytes (flushed at the end of each loop iteration).
    std::mutex mutex;
    std::vector<int> pending_accepts;
    std::vector<ConnectionPtr> pending_writes;

    ~EventLoop();
  };

  void LoopMain(size_t index);
  /// Runs queued swap/canary work until Shutdown's empty sentinel.
  void ControlMain();

  void AdoptPendingAccepts(EventLoop* loop);
  void RegisterConnection(EventLoop* loop, int fd);
  void HandleAccept(EventLoop* loop);
  /// fd-exhaustion backoff: unregisters the listen socket from loop 0's
  /// epoll for a brief pause instead of hot-spinning on a full backlog the
  /// process cannot accept from. Loop 0's thread re-arms it after the
  /// pause (see LoopMain). Only ever called on loop 0's thread.
  void PauseAccept(EventLoop* loop, int error);
  void HandleReadable(EventLoop* loop, const ConnectionPtr& conn);
  void HandleWritable(EventLoop* loop, const ConnectionPtr& conn);
  /// Dispatches one decoded frame (loop thread).
  void HandleFrame(EventLoop* loop, const ConnectionPtr& conn, Frame frame);
  /// Admission control + Router submit for one classify frame.
  void HandleClassify(const ConnectionPtr& conn, const Frame& frame);
  /// Admission control for one decoded classify; a refusal is counted as
  /// shed. Sets *remaining_budget_us from the absolute deadline (0 = none).
  Status Admit(uint64_t request_id, const ClassifyRequestMsg& msg,
               size_t inflight_now, int64_t* remaining_budget_us);
  /// The one exit of every classify frame, on whichever thread has its
  /// result (loop, engine worker): encodes the response, counts it exactly
  /// once (ok / error / dropped) and releases its in-flight slot.
  void FinishClassify(const ConnectionPtr& conn, uint64_t request_id,
                      int64_t t0_us,
                      const Result<serve::Classification>& result);
  /// Swap/canary frame: refused inline or queued for the control thread.
  void HandleControl(const ConnectionPtr& conn, const Frame& frame);
  /// Returns one in-flight slot and wakes a draining Shutdown at zero.
  void ReleaseSlot();
  /// Appends encoded bytes to conn's outbound and queues the connection
  /// for a flush, waking its loop unless called from that loop. Returns
  /// false (and counts nothing) when the connection is already closed.
  bool EnqueueOutput(const ConnectionPtr& conn, const std::string& bytes);
  /// Flushes as much outbound as the socket accepts (loop thread only);
  /// arms EPOLLOUT when bytes remain.
  void FlushOutput(EventLoop* loop, const ConnectionPtr& conn);
  void CloseConnection(EventLoop* loop, const ConnectionPtr& conn,
                       const char* reason, bool from_idle_sweep = false);
  void SweepIdle(EventLoop* loop, int64_t now_ms);
  void WakeLoop(EventLoop* loop);

  static int64_t NowMs();
  static int64_t NowUs();
  /// Wall-clock us since the Unix epoch — the timescale of the client's
  /// absolute deadline (deadline_unix_us in ClassifyRequestMsg).
  static int64_t WallNowUs();

  serve::Router* router_;
  ServerOptions options_;
  size_t resolved_shed_depth_ = 0;

  int listen_fd_ = -1;
  int bound_port_ = 0;
  /// Accept-pause state; touched only by loop 0's thread, no locking.
  bool accept_paused_ = false;
  int64_t accept_resume_ms_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_loop_{0};
  std::atomic<uint64_t> next_conn_id_{1};

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};

  // Control thread: swap/canary work, FIFO; an empty task stops it.
  std::thread control_thread_;
  std::mutex control_mutex_;
  std::condition_variable control_cv_;
  std::deque<std::function<void()>> control_queue_;

  // Drain rendezvous: Shutdown waits here for inflight_ to hit zero.
  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  /// Serialises concurrent Shutdown() calls (e.g. signal handler thread vs
  /// destructor); the loser waits for the winner's teardown, then no-ops.
  std::mutex shutdown_mutex_;

  std::atomic<size_t> inflight_{0};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> closed_{0};
  std::atomic<uint64_t> idle_closed_{0};
  std::atomic<uint64_t> over_capacity_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> classify_frames_{0};
  std::atomic<uint64_t> responses_ok_{0};
  std::atomic<uint64_t> responses_error_{0};
  std::atomic<uint64_t> responses_dropped_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_shed_{0};
  std::atomic<uint64_t> accept_pauses_{0};
  std::atomic<uint64_t> swaps_{0};

  obs::FlightRecorder* recorder_;
  obs::Gauge* connections_gauge_;
  obs::Counter* connections_total_;
  obs::Counter* frames_in_total_;
  obs::Counter* frames_out_total_;
  obs::Counter* bytes_in_total_;
  obs::Counter* bytes_out_total_;
  obs::Counter* shed_total_;
  obs::Counter* deadline_shed_total_;
  obs::Counter* accept_pauses_total_;
  obs::Counter* protocol_errors_total_;
  obs::Counter* idle_closed_total_;
  obs::Counter* responses_dropped_total_;
  obs::Gauge* inflight_gauge_;
  obs::Histogram* request_us_;
};

}  // namespace net
}  // namespace fkd

#endif  // FKD_NET_SERVER_H_
