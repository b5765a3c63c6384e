#ifndef BULKDEL_UTIL_CLOCK_H_
#define BULKDEL_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace bulkdel {

/// The process-wide monotonic clock: nanoseconds on std::chrono::steady_clock.
///
/// Every host-time measurement in the system reads this one source — the
/// bench harness's Stopwatch, ExecContext's statement epoch, and the
/// TraceRecorder's span/instant timestamps — so a span's [begin, end) in an
/// exported trace is directly comparable to the wall times the benches print
/// (same origin, same rate; only the unit differs).
inline int64_t MonotonicNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace bulkdel

#endif  // BULKDEL_UTIL_CLOCK_H_
