#ifndef FKD_OBS_FLIGHT_RECORDER_H_
#define FKD_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fkd {
namespace obs {

/// What happened. Values are stable (they appear in dump files); append
/// only. Values 6, 22, 24, 25, 46, 47, 82, 83 and 84 are retired: older
/// dumps may hold them, so they are never reused.
enum class FlightEventType : uint32_t {
  kNone = 0,
  // Request lifecycle (a = request id, b = detail).
  kRequestSubmit = 1,    ///< b = deadline budget in us (0 = none)
  kCacheHit = 2,         ///< b = model version
  kCacheMiss = 3,
  kEngineEnqueue = 4,    ///< b = queue depth after enqueue
  kEngineReject = 5,     ///< b = queue depth at rejection
  kRequestComplete = 7,  ///< b = total latency us
  kRequestDeadline = 8,  ///< b = total latency us
  kRequestFailed = 9,    ///< b = total latency us
  kRequestUnavailable = 10,  ///< engine stopped with request still queued
  // Batch / engine (a = batch size, b = detail).
  kBatchStart = 20,      ///< b = model version
  kBatchEnd = 21,        ///< b = compute us
  kBatchFailed = 23,     ///< b = model version
  kEngineStart = 26,     ///< a = worker count
  kEngineStop = 27,      ///< a = drained queue depth
  // Model / swap lifecycle (a = version, b = detail).
  kModelPublish = 40,
  kModelRetire = 41,
  kSwapBegin = 42,
  kSwapEnd = 43,         ///< b = new active version
  kCanaryStart = 44,     ///< b = permille
  kCanaryStop = 45,      ///< b = 1 if promoted
  // Faults (a = site hash, b = action).
  kFault = 60,
  // Network front end (src/net).
  kConnAccept = 70,        ///< a = connection id, b = event-loop index
  kConnClose = 71,         ///< a = connection id, b = 1 if idle-swept
  kNetShed = 72,           ///< a = request id, b = depth/inflight at shed
  kNetProtocolError = 73,  ///< a = connection id, b = frame type (0 = framing)
  kServerStart = 74,       ///< a = bound port, b = event loops
  kServerStop = 75,        ///< a = responses dropped on dead connections
  // Fault tolerance on the wire (deadline shed, accept pause).
  kNetAcceptPause = 80,    ///< a = consecutive failures, b = pause ms
  kNetDeadlineShed = 81,   ///< a = request id, b = us past the deadline
};

/// Human-readable tag for a dump line, e.g. "request_submit".
const char* FlightEventTypeName(FlightEventType type);

/// One decoded event as returned by FlightRecorder::Snapshot().
struct FlightEvent {
  int64_t ts_us = 0;  ///< steady-clock microseconds (Tracer epoch)
  uint64_t thread_id = 0;
  FlightEventType type = FlightEventType::kNone;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// Always-on, lock-free ring of recent process events — the "black box"
/// consulted after a crash. Each thread claims a private fixed-size ring
/// on first Record(), so the hot path is five relaxed atomic stores and a
/// relaxed counter bump (~O(ns), no locks, no allocation); threads beyond
/// the slot table share one spillover ring. Readers (Snapshot/Dump*) walk
/// every ring with relaxed loads, so an event being written concurrently
/// may decode torn — acceptable for diagnostics and invisible to TSan
/// because every slot field is an atomic.
///
/// The recorder registers itself with FaultInjector (crash hook) and can
/// install a SIGTERM handler, so fatal fault-injection sites and external
/// terminations leave a dump at FKD_FLIGHT_RECORDER_PATH (default
/// "fkd_flight_recorder.dump" in the working directory).
class FlightRecorder {
 public:
  /// Process-wide recorder. First call wires the FaultInjector crash hook.
  static FlightRecorder& Get();

  /// Appends one event to the calling thread's ring. Safe from any thread
  /// at any time; a no-op when disabled.
  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0);

  /// Master switch (default on). Used by the overhead benchmark to measure
  /// the recorder's cost against a recorder-free baseline.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All live events across every ring, sorted by timestamp.
  std::vector<FlightEvent> Snapshot() const;

  /// Total Record() calls (including overwritten ones).
  uint64_t NumRecorded() const;

  /// Writes a readable dump (header + one line per event, oldest first).
  /// Returns false if the file cannot be written.
  bool DumpToFile(const std::string& path) const;

  /// Async-signal-tolerant dump to an open descriptor: formats into stack
  /// buffers and uses plain write(), no allocation or locks. Used by the
  /// crash hook and the SIGTERM handler.
  void DumpToFd(int fd) const;

  /// Dump path: FKD_FLIGHT_RECORDER_PATH or the built-in default.
  static std::string DumpPath();

  /// Installs a SIGTERM handler that dumps and then re-raises with the
  /// default disposition. Idempotent.
  static void InstallSigtermHandler();

  /// Zeroes every ring (test isolation; not thread-safe vs concurrent
  /// Record on other threads beyond the torn-event guarantee above).
  void Clear();

  static constexpr size_t kRingSlots = 2048;    ///< per-thread events kept
  static constexpr size_t kMaxThreadRings = 64; ///< beyond this: shared ring

 private:
  struct Slot {
    std::atomic<int64_t> ts_us{0};
    std::atomic<uint32_t> type{0};
    std::atomic<uint64_t> thread_id{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  struct ThreadRing {
    std::atomic<uint64_t> next{0};  ///< monotone write cursor
    Slot slots[kRingSlots];
  };

  FlightRecorder();
  ~FlightRecorder() = delete;  // intentionally leaked singleton

  ThreadRing* RingForThisThread();
  void CollectRing(const ThreadRing& ring, std::vector<FlightEvent>* out) const;

  std::atomic<bool> enabled_{true};
  std::atomic<ThreadRing*> rings_[kMaxThreadRings];
  ThreadRing shared_ring_;  ///< spillover once the slot table is full
  std::atomic<size_t> num_rings_{0};
};

}  // namespace obs
}  // namespace fkd

#endif  // FKD_OBS_FLIGHT_RECORDER_H_
