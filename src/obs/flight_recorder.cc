#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace fkd {
namespace obs {

namespace {

constexpr char kDefaultDumpPath[] = "fkd_flight_recorder.dump";

/// Dump path cached in a fixed buffer at first use so the SIGTERM handler
/// never has to allocate.
char g_dump_path[512] = {0};

const char* CachedDumpPath() {
  if (g_dump_path[0] == '\0') {
    const char* env = std::getenv("FKD_FLIGHT_RECORDER_PATH");
    const char* path = (env != nullptr && env[0] != '\0') ? env : kDefaultDumpPath;
    std::strncpy(g_dump_path, path, sizeof(g_dump_path) - 1);
  }
  return g_dump_path;
}

uint64_t ThisThreadId() {
  // Hashed once per thread: Record() is on the per-request hot path.
  thread_local const uint64_t t_id = static_cast<uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  return t_id;
}

/// Signal-safe unsigned decimal formatting; returns chars written.
size_t FormatU64(uint64_t v, char* out) {
  char tmp[24];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) out[i] = tmp[n - 1 - i];
  return n;
}

size_t FormatI64(int64_t v, char* out) {
  if (v < 0) {
    out[0] = '-';
    return 1 + FormatU64(static_cast<uint64_t>(-v), out + 1);
  }
  return FormatU64(static_cast<uint64_t>(v), out);
}

size_t Append(const char* s, char* out) {
  size_t n = std::strlen(s);
  std::memcpy(out, s, n);
  return n;
}

void WriteAll(int fd, const char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, buf + off, n - off);
    if (w <= 0) return;  // best effort: we are on the way down
    off += static_cast<size_t>(w);
  }
}

/// FaultInjector crash hook: record the fault itself, then dump. Runs in a
/// normal (non-signal) context right before _exit/abort.
void DumpOnFault(const char* site, int action) {
  FlightRecorder& recorder = FlightRecorder::Get();
  recorder.Record(FlightEventType::kFault,
                  std::hash<std::string_view>{}(site),
                  static_cast<uint64_t>(action));
  const int fd =
      ::open(CachedDumpPath(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  char line[600];
  size_t n = Append("fault_site=", line);
  n += Append(site, line + n);
  line[n++] = '\n';
  WriteAll(fd, line, n);
  recorder.DumpToFd(fd);
  ::close(fd);
}

void SigtermHandler(int signo) {
  const int fd =
      ::open(CachedDumpPath(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    FlightRecorder::Get().DumpToFd(fd);
    ::close(fd);
  }
  ::signal(signo, SIG_DFL);
  ::raise(signo);
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kNone: return "none";
    case FlightEventType::kRequestSubmit: return "request_submit";
    case FlightEventType::kCacheHit: return "cache_hit";
    case FlightEventType::kCacheMiss: return "cache_miss";
    case FlightEventType::kEngineEnqueue: return "engine_enqueue";
    case FlightEventType::kEngineReject: return "engine_reject";
    case FlightEventType::kRequestComplete: return "request_complete";
    case FlightEventType::kRequestDeadline: return "request_deadline";
    case FlightEventType::kRequestFailed: return "request_failed";
    case FlightEventType::kRequestUnavailable: return "request_unavailable";
    case FlightEventType::kBatchStart: return "batch_start";
    case FlightEventType::kBatchEnd: return "batch_end";
    case FlightEventType::kBatchFailed: return "batch_failed";
    case FlightEventType::kEngineStart: return "engine_start";
    case FlightEventType::kEngineStop: return "engine_stop";
    case FlightEventType::kModelPublish: return "model_publish";
    case FlightEventType::kModelRetire: return "model_retire";
    case FlightEventType::kSwapBegin: return "swap_begin";
    case FlightEventType::kSwapEnd: return "swap_end";
    case FlightEventType::kCanaryStart: return "canary_start";
    case FlightEventType::kCanaryStop: return "canary_stop";
    case FlightEventType::kFault: return "fault";
    case FlightEventType::kConnAccept: return "conn_accept";
    case FlightEventType::kConnClose: return "conn_close";
    case FlightEventType::kNetShed: return "net_shed";
    case FlightEventType::kNetProtocolError: return "net_protocol_error";
    case FlightEventType::kServerStart: return "server_start";
    case FlightEventType::kServerStop: return "server_stop";
    case FlightEventType::kNetAcceptPause: return "net_accept_pause";
    case FlightEventType::kNetDeadlineShed: return "net_deadline_shed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder() {
  for (auto& slot : rings_) slot.store(nullptr, std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::Get() {
  static FlightRecorder* recorder = [] {
    auto* created = new FlightRecorder();
    CachedDumpPath();  // cache before any signal can need it
    FaultInjector::Global().SetCrashHook(&DumpOnFault);
    return created;
  }();
  return *recorder;
}

FlightRecorder::ThreadRing* FlightRecorder::RingForThisThread() {
  thread_local ThreadRing* t_ring = nullptr;
  if (t_ring != nullptr) return t_ring;
  for (size_t i = 0; i < kMaxThreadRings; ++i) {
    if (rings_[i].load(std::memory_order_acquire) == nullptr) {
      auto* fresh = new ThreadRing();  // leaked with the singleton by design
      ThreadRing* expected = nullptr;
      if (rings_[i].compare_exchange_strong(expected, fresh,
                                            std::memory_order_acq_rel)) {
        num_rings_.fetch_add(1, std::memory_order_relaxed);
        t_ring = fresh;
        return t_ring;
      }
      delete fresh;  // another thread claimed slot i; try the next one
    }
  }
  t_ring = &shared_ring_;  // slot table exhausted: spill to the shared ring
  return t_ring;
}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b) {
  if (!enabled()) return;
  ThreadRing* ring = RingForThisThread();
  const uint64_t seq = ring->next.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[seq % kRingSlots];
  // type is stored last so a reader that sees it set usually sees the rest;
  // a torn event (reader between stores) is acceptable for diagnostics.
  slot.ts_us.store(Tracer::Get().NowMicros(), std::memory_order_relaxed);
  slot.thread_id.store(ThisThreadId(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_release);
}

void FlightRecorder::CollectRing(const ThreadRing& ring,
                                 std::vector<FlightEvent>* out) const {
  const uint64_t next = ring.next.load(std::memory_order_relaxed);
  const uint64_t live = std::min<uint64_t>(next, kRingSlots);
  for (uint64_t i = 0; i < live; ++i) {
    const Slot& slot = ring.slots[i];
    const uint32_t type = slot.type.load(std::memory_order_acquire);
    if (type == 0) continue;
    FlightEvent event;
    event.ts_us = slot.ts_us.load(std::memory_order_relaxed);
    event.thread_id = slot.thread_id.load(std::memory_order_relaxed);
    event.type = static_cast<FlightEventType>(type);
    event.a = slot.a.load(std::memory_order_relaxed);
    event.b = slot.b.load(std::memory_order_relaxed);
    out->push_back(event);
  }
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::vector<FlightEvent> events;
  for (size_t i = 0; i < kMaxThreadRings; ++i) {
    const ThreadRing* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) CollectRing(*ring, &events);
  }
  CollectRing(shared_ring_, &events);
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& x, const FlightEvent& y) {
              return x.ts_us < y.ts_us;
            });
  return events;
}

uint64_t FlightRecorder::NumRecorded() const {
  uint64_t total = shared_ring_.next.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxThreadRings; ++i) {
    const ThreadRing* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->next.load(std::memory_order_relaxed);
  }
  return total;
}

bool FlightRecorder::DumpToFile(const std::string& path) const {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  DumpToFd(fd);
  ::close(fd);
  return true;
}

void FlightRecorder::DumpToFd(int fd) const {
  char line[256];
  size_t n = Append("=== fkd flight recorder ===\nevents_recorded=", line);
  n += FormatU64(NumRecorded(), line + n);
  line[n++] = '\n';
  WriteAll(fd, line, n);
  // Per-ring, oldest slot first: sorted merge would need allocation, which
  // a crash/signal path must not do. Consumers sort on ts_us if they care.
  const auto dump_ring = [&](const ThreadRing& ring) {
    const uint64_t next = ring.next.load(std::memory_order_relaxed);
    const uint64_t live = std::min<uint64_t>(next, kRingSlots);
    const uint64_t start = next > kRingSlots ? next - kRingSlots : 0;
    for (uint64_t s = 0; s < live; ++s) {
      const Slot& slot = ring.slots[(start + s) % kRingSlots];
      const uint32_t type = slot.type.load(std::memory_order_acquire);
      if (type == 0) continue;
      size_t k = 0;
      line[k++] = '[';
      k += FormatI64(slot.ts_us.load(std::memory_order_relaxed), line + k);
      k += Append("us] tid=", line + k);
      k += FormatU64(slot.thread_id.load(std::memory_order_relaxed) % 100000,
                     line + k);
      line[k++] = ' ';
      k += Append(FlightEventTypeName(static_cast<FlightEventType>(type)),
                  line + k);
      k += Append(" a=", line + k);
      k += FormatU64(slot.a.load(std::memory_order_relaxed), line + k);
      k += Append(" b=", line + k);
      k += FormatU64(slot.b.load(std::memory_order_relaxed), line + k);
      line[k++] = '\n';
      WriteAll(fd, line, k);
    }
  };
  for (size_t i = 0; i < kMaxThreadRings; ++i) {
    const ThreadRing* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) dump_ring(*ring);
  }
  dump_ring(shared_ring_);
  n = Append("=== end of dump ===\n", line);
  WriteAll(fd, line, n);
}

std::string FlightRecorder::DumpPath() { return CachedDumpPath(); }

void FlightRecorder::InstallSigtermHandler() {
  Get();  // ensure the recorder and cached path exist
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = &SigtermHandler;
  ::sigaction(SIGTERM, &action, nullptr);
}

void FlightRecorder::Clear() {
  const auto clear_ring = [](ThreadRing& ring) {
    for (auto& slot : ring.slots) {
      slot.type.store(0, std::memory_order_relaxed);
      slot.ts_us.store(0, std::memory_order_relaxed);
      slot.thread_id.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
    }
    ring.next.store(0, std::memory_order_relaxed);
  };
  for (size_t i = 0; i < kMaxThreadRings; ++i) {
    ThreadRing* ring = rings_[i].load(std::memory_order_acquire);
    if (ring != nullptr) clear_ring(*ring);
  }
  clear_ring(shared_ring_);
}

}  // namespace obs
}  // namespace fkd
