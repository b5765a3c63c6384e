#ifndef BULKDEL_UTIL_STOPWATCH_H_
#define BULKDEL_UTIL_STOPWATCH_H_

#include <cstdint>

#include "util/clock.h"

namespace bulkdel {

/// Wall-clock stopwatch for the benchmark harness. Reads the same monotonic
/// clock as the TraceRecorder (util/clock.h), so bench timings and exported
/// span times are directly comparable.
class Stopwatch {
 public:
  Stopwatch() : start_nanos_(MonotonicNanos()) {}

  /// Elapsed wall time in microseconds since construction.
  int64_t ElapsedMicros() const {
    return (MonotonicNanos() - start_nanos_) / 1000;
  }

  int64_t ElapsedNanos() const { return MonotonicNanos() - start_nanos_; }

 private:
  int64_t start_nanos_;
};

}  // namespace bulkdel

#endif  // BULKDEL_UTIL_STOPWATCH_H_
