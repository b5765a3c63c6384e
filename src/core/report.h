#ifndef BULKDEL_CORE_REPORT_H_
#define BULKDEL_CORE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "plan/plan.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/result.h"

namespace bulkdel {

/// Per-phase measurement of one bulk-delete execution.
///
/// Phases may overlap when `DatabaseOptions::exec_threads > 1`: the structured
/// trace fields (begin/end relative to statement start, executing thread,
/// parent phase) let tools reconstruct the schedule. I/O is attributed
/// exactly per phase via DiskManager::AttributionScope, so concurrent phases
/// never steal each other's page counts.
struct PhaseStats {
  std::string name;
  IoStats io;            ///< I/O performed by this phase (attributed exactly)
  int64_t wall_micros = 0;
  uint64_t items = 0;    ///< records/entries processed by this phase

  // Structured trace (all times relative to statement start).
  int64_t begin_micros = 0;
  int64_t end_micros = 0;
  /// Small dense ordinal of the executing thread (0 = statement thread).
  int thread_id = 0;
  /// Name of the enclosing phase, empty at top level.
  std::string parent;

  double simulated_seconds() const {
    return static_cast<double>(io.simulated_micros) * 1e-6;
  }

  /// True if the two phases' [begin, end) wall-clock windows intersect.
  bool OverlapsInTime(const PhaseStats& other) const {
    return begin_micros < other.end_micros && other.begin_micros < end_micros;
  }
};

/// Per-table attribution of one statement's CASCADE fan-out: how many rows
/// one child-table leg of the cascade plan removed. A table cascaded into
/// through more than one FK appears once per leg, in execution (deepest-
/// first) order.
struct CascadeTableRows {
  std::string table;
  uint64_t rows = 0;

  friend bool operator==(const CascadeTableRows& a,
                         const CascadeTableRows& b) {
    return a.table == b.table && a.rows == b.rows;
  }
};

/// Result of Database::BulkDelete. The headline metric is
/// `simulated_seconds()` — elapsed time under the 2001-era DiskModel — which
/// is what the paper's figures plot; raw I/O counters and host wall time are
/// included for completeness.
struct BulkDeleteReport {
  Strategy strategy_used = Strategy::kVerticalSortMerge;
  uint64_t rows_deleted = 0;
  uint64_t index_entries_deleted = 0;
  /// Child rows removed by CASCADE foreign keys (recursively).
  uint64_t cascaded_rows = 0;
  /// Per-child-table breakdown of `cascaded_rows`, one entry per cascade
  /// leg in execution order. Empty when nothing cascaded.
  std::vector<CascadeTableRows> cascade_tables;
  std::vector<PhaseStats> phases;
  IoStats io;
  /// Buffer-pool activity during this statement (delta across the run).
  BufferPoolStats pool;
  /// Metric deltas across this statement (counters and log2-bucket
  /// histograms from the database's obs::MetricsRegistry). The clock-reading
  /// latency histograms only populate when DatabaseOptions::trace_spans is
  /// on; counters and count-valued histograms always do.
  obs::MetricsSnapshot metrics;
  int64_t wall_micros = 0;
  /// Which durability backend executed the statement: "sim" (in-memory pages
  /// + in-memory WAL image) or "file" (pwrite/fsync page file + on-disk WAL).
  /// Simulated I/O totals are backend-independent; wall_micros is not.
  std::string backend = "sim";
  std::string plan_explain;

  double simulated_seconds() const {
    return static_cast<double>(io.simulated_micros) * 1e-6;
  }
  double simulated_minutes() const { return simulated_seconds() / 60.0; }

  /// Multi-line human-readable summary.
  std::string ToString() const;

  /// Machine-readable trace: the whole report, including every phase with
  /// its structured trace fields, as a single JSON object. FromJson() parses
  /// it back; ToJson/FromJson round-trip all fields exactly.
  std::string ToJson() const;
  static Result<BulkDeleteReport> FromJson(const std::string& json);
};

}  // namespace bulkdel

#endif  // BULKDEL_CORE_REPORT_H_
