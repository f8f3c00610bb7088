#ifndef FKD_COMMON_CLOCK_H_
#define FKD_COMMON_CLOCK_H_

#include <cstdint>

namespace fkd {

/// The two timescales of the serving stack, deliberately separate:
///  - MonotonicUs() — monotonic (steady_clock) microseconds, arbitrary
///    epoch, differences only; the only clock allowed in timeout/backoff
///    arithmetic, immune to NTP steps.
///  - WallUs() — wall-clock (system_clock) microseconds since the Unix
///    epoch; the clock the FKDN deadline-propagation contract uses so a
///    client-stamped absolute deadline means the same instant on the
///    server (same box or NTP-disciplined fleet).
int64_t MonotonicUs();
int64_t WallUs();

}  // namespace fkd

#endif  // FKD_COMMON_CLOCK_H_
