#ifndef FKD_COMMON_LOGGING_H_
#define FKD_COMMON_LOGGING_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace fkd {

/// Severity levels for the lightweight logger. kFatal aborts the process
/// after emitting the message.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

namespace internal {

/// Minimum severity that is actually emitted; configurable at runtime and
/// initialised once from the FKD_LOG_LEVEL environment variable (a name
/// like "debug"/"warning" or a digit 0-4) before the first message.
LogLevel GetMinLogLevel();
void SetMinLogLevel(LogLevel level);

/// Parses a level name ("debug", "info", "warn"/"warning", "error",
/// "fatal", case-insensitive) or digit; false on unrecognised input.
bool ParseLogLevel(const char* text, LogLevel* level);

/// Stream-style log message. Emits on destruction; aborts for kFatal.
/// Each line carries an ISO-8601 UTC timestamp + severity prefix and is
/// written under a process-wide mutex, so concurrent threads never
/// interleave within a line.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

/// Sink that swallows everything (for disabled debug logging).
class NullLog {
 public:
  template <typename T>
  NullLog& operator<<(const T&) {
    return *this;
  }
};

/// True on the 1st, (n+1)th, (2n+1)th... call against `counter` — the
/// sampling gate behind FKD_LOG_EVERY_N. One relaxed fetch_add per call.
inline bool ShouldLogEveryN(std::atomic<uint64_t>* counter, uint64_t n) {
  if (n <= 1) return true;
  return counter->fetch_add(1, std::memory_order_relaxed) % n == 0;
}

}  // namespace internal

/// Runtime-configurable global log verbosity.
inline void SetLogLevel(LogLevel level) { internal::SetMinLogLevel(level); }

#define FKD_LOG(level)                                                      \
  ::fkd::internal::LogMessage(::fkd::LogLevel::k##level, __FILE__, __LINE__)

/// Rate-limited logging for hot paths: emits the 1st, (n+1)th, (2n+1)th...
/// occurrence *at this call site* and swallows the rest, so a retry storm
/// or a sick replica cannot flood the sink. The per-site counter lives in a
/// lambda-local static, making this a single statement usable anywhere
/// FKD_LOG is. Emitted lines keep the ISO-8601 + mutex contract of FKD_LOG.
#define FKD_LOG_EVERY_N(level, n)                                            \
  if (::fkd::internal::ShouldLogEveryN(                                      \
          [] {                                                               \
            static ::std::atomic<uint64_t> fkd_log_site_counter{0};          \
            return &fkd_log_site_counter;                                    \
          }(),                                                               \
          (n)))                                                              \
  FKD_LOG(level)

/// Invariant check: aborts with a diagnostic when `condition` is false.
/// Use for programmer errors only; recoverable failures return Status.
#define FKD_CHECK(condition)                                              \
  if (!(condition))                                                       \
  ::fkd::internal::LogMessage(::fkd::LogLevel::kFatal, __FILE__, __LINE__) \
      << "Check failed: " #condition " "

#define FKD_CHECK_OK(expr)                                                 \
  do {                                                                     \
    ::fkd::Status _fkd_check_status = (expr);                              \
    FKD_CHECK(_fkd_check_status.ok()) << _fkd_check_status.ToString();     \
  } while (false)

#define FKD_CHECK_EQ(a, b) FKD_CHECK((a) == (b)) << "(" << (a) << " vs " << (b) << ") "
#define FKD_CHECK_NE(a, b) FKD_CHECK((a) != (b)) << "(" << (a) << " vs " << (b) << ") "
#define FKD_CHECK_LT(a, b) FKD_CHECK((a) < (b)) << "(" << (a) << " vs " << (b) << ") "
#define FKD_CHECK_LE(a, b) FKD_CHECK((a) <= (b)) << "(" << (a) << " vs " << (b) << ") "
#define FKD_CHECK_GT(a, b) FKD_CHECK((a) > (b)) << "(" << (a) << " vs " << (b) << ") "
#define FKD_CHECK_GE(a, b) FKD_CHECK((a) >= (b)) << "(" << (a) << " vs " << (b) << ") "

#ifndef NDEBUG
#define FKD_DCHECK(condition) FKD_CHECK(condition)
#else
#define FKD_DCHECK(condition) \
  while (false) ::fkd::internal::NullLog()
#endif

}  // namespace fkd

#endif  // FKD_COMMON_LOGGING_H_
