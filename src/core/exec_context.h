#ifndef BULKDEL_CORE_EXEC_CONTEXT_H_
#define BULKDEL_CORE_EXEC_CONTEXT_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/report.h"
#include "storage/disk_manager.h"
#include "util/clock.h"
#include "util/status.h"

namespace bulkdel {

class Database;

/// Per-statement execution context threaded through every executor: the
/// database handle, the statement-relative clock, per-phase I/O attribution,
/// and a cooperative cancel flag.
///
/// One ExecContext lives for exactly one statement (BulkDelete / recovery
/// resume). Phases — possibly overlapping, possibly on worker
/// threads — measure themselves with PhaseScope; the context collects the
/// finished PhaseStats and keeps a *root* I/O attribution installed on the
/// statement thread so pages touched outside any phase are still charged to
/// the statement.
///
/// All methods are thread-safe.
class ExecContext {
 public:
  /// Must be constructed (and destructed) on the statement thread: the root
  /// I/O attribution is installed on the constructing thread for the
  /// context's lifetime.
  explicit ExecContext(Database* db);
  ~ExecContext() = default;

  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  Database* db() const { return db_; }

  // -- Cancellation -----------------------------------------------------------
  /// Flags the statement as cancelled; the first cause wins. Running phases
  /// observe the flag cooperatively (the scheduler stops dispatching new
  /// phases immediately).
  void RequestCancel(const Status& cause);
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }
  /// The first cancel cause, or OK if not cancelled.
  Status cancel_cause() const;

  // -- Trace ------------------------------------------------------------------
  /// MonotonicNanos() when the statement started: the origin of every
  /// PhaseStats timestamp.
  int64_t epoch_nanos() const { return epoch_nanos_; }
  /// Dense per-statement ordinal of the calling thread (0 = the thread that
  /// created the context).
  int ThreadOrdinal();

  /// The obs::StatementRegistry id of the SQL statement this execution runs
  /// under, or 0 when the execution was not started through the SQL layer
  /// (benches calling BulkDelete directly, recovery). Captured from the
  /// statement thread's thread-local at construction so PhaseScope can
  /// publish the current phase from worker threads.
  uint64_t statement_id() const { return statement_id_; }

  /// Called by PhaseScope when a phase finishes; appends to the collected
  /// trace and accumulates the statement's attributed I/O total.
  void RecordPhase(PhaseStats phase);

  /// Moves the collected phase trace out (statement end).
  std::vector<PhaseStats> TakePhases();

  /// Statement I/O total: the root attribution (pages touched outside any
  /// phase) plus every recorded phase's attribution. Because each phase
  /// carries its own disk-head classification, this total is a function of
  /// the phases' page-access sequences only — identical across
  /// `exec_threads` settings for the same logical work.
  IoStats AttributedTotal() const;

 private:
  Database* db_;
  const int64_t epoch_nanos_ = MonotonicNanos();
  uint64_t statement_id_ = 0;

  mutable std::mutex mu_;
  std::vector<PhaseStats> phases_;
  IoStats phase_io_total_;
  std::map<std::thread::id, int> thread_ordinals_;
  int next_ordinal_ = 0;

  std::atomic<bool> cancelled_{false};
  Status cancel_cause_;

  IoAttribution root_attribution_;
  DiskManager::AttributionScope root_scope_;
};

/// RAII measurement of one execution phase. Construct at phase start on the
/// thread that runs the phase; the destructor stamps the end time and hands
/// the finished PhaseStats to the context. The clock is read once at each
/// edge; the PhaseStats times and the kPhase trace span both derive from
/// those two readings. Structurally nest- and overlap-safe: every scope owns
/// its own I/O attribution and begin reading, so there is no begin/end
/// pairing to lose — a phase cannot be dropped by a missing Begin or double
/// End, and concurrent phases cannot corrupt each other's deltas (the
/// failure modes of the old scrape-the-global-counter PhaseTracker). Nested
/// scopes attribute I/O to the innermost phase.
class PhaseScope {
 public:
  PhaseScope(ExecContext* ctx, std::string name, std::string parent = {});
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

  /// Sets the items-processed count recorded at scope exit.
  void set_items(uint64_t items) { items_ = items; }

 private:
  ExecContext* ctx_;
  std::string name_;
  std::string parent_;
  uint64_t items_ = 0;
  /// MonotonicNanos() at construction.
  int64_t begin_nanos_;
  int thread_id_;
  IoAttribution attribution_;
  DiskManager::AttributionScope io_scope_;
};

}  // namespace bulkdel

#endif  // BULKDEL_CORE_EXEC_CONTEXT_H_
