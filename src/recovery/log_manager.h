#ifndef BULKDEL_RECOVERY_LOG_MANAGER_H_
#define BULKDEL_RECOVERY_LOG_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "recovery/log_record.h"
#include "recovery/wal_backend.h"
#include "util/status.h"

namespace bulkdel {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Append-only WAL with explicit durability and group commit.
///
/// Records are framed by the wal_codec (length-prefixed, CRC-checksummed)
/// and appended to a pluggable WalBackend byte sink: an in-memory image for
/// simulation, or a real file whose Sync() is an fsync(2). Appended records
/// are volatile until Sync(); a crash (simulated or real) loses the
/// un-flushed tail, exactly like lost OS buffers.
///
/// Every appended record gets the next sequence number. The buffer pool
/// stamps each dirty frame with appended_seq() when it is unpinned and calls
/// SyncTo(stamp) before writing the frame back, so no page write can precede
/// the durability of the log records describing it (the WAL rule, in its
/// ARIES form "pageLSN <= flushedLSN"). This relies on one invariant at
/// every logging site: a record describing a page change is appended before
/// that page is unpinned.
///
/// Group commit: concurrent Sync() callers coalesce onto one leader flush —
/// the first syncer encodes and fsyncs every record appended so far, and
/// followers whose records rode along return without touching the backend.
/// Followers that arrive mid-flush wait and (at most) trigger one more
/// flush for their tail. One fsync thus covers a whole batch of acks, which
/// is what keeps the §3.1 updater ack path off the fsync critical path.
/// SetGroupCommit(false) degrades to one flush+fsync per Sync() call (the
/// ablation baseline).
///
/// Torn tails are *detected*, not flagged: an interrupted flush (fault
/// injection, or a real crash with the file backend) leaves a trailing
/// frame whose length or CRC check fails, and the restart scan truncates
/// the log there (DropTornTail).
class LogManager {
 public:
  /// In-memory (simulation) WAL.
  LogManager();
  /// File-backed WAL at `path`. `truncate` discards existing contents;
  /// otherwise the file is scanned on open — clean frames become the
  /// durable prefix, a torn tail is remembered for DropTornTail, and the
  /// bulk-delete id counter resumes past every recovered record.
  LogManager(const std::string& path, bool truncate);
  ~LogManager();

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Status of the open-time scan (file backend): IOError if the file could
  /// not be opened or read. The sim backend is always OK.
  Status open_status() const {
    std::lock_guard<std::mutex> lock(mu_);
    return open_status_;
  }

  uint64_t NextBulkDeleteId() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_bd_id_;
  }

  void Append(LogRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    volatile_.push_back(std::move(record));
    appended_seq_.fetch_add(1, std::memory_order_release);
  }

  /// Sequence number of the last appended record, readable without the log
  /// latch: the buffer pool stamps dirty frames with it on every unpin.
  const std::atomic<uint64_t>& appended_seq() const { return appended_seq_; }

  /// Makes every record appended so far durable. Concurrent callers group
  /// commit (see class comment). Under an armed fault injector the flush can
  /// be interrupted (`log.sync` site): nothing of the batch survives
  /// (kCrash), or a prefix of its frames does plus a half-written frame of
  /// garbage (kTornWrite) — detected by the CRC scan on restart. Once the
  /// injector is tripped, Sync is a no-op: a dead process syncs nothing.
  void Sync();

  /// Makes every record through sequence `seq` durable: returns false at
  /// once when the durable prefix already covers it, otherwise runs Sync()
  /// and returns true. The buffer pool calls this before a dirty write-back.
  bool SyncTo(uint64_t seq);

  /// Group commit on/off (default on). Off = every Sync() call performs its
  /// own flush + fsync, even if its records are already durable.
  void SetGroupCommit(bool enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    group_commit_ = enabled;
  }

  /// Crash simulation: lose the un-synced tail. Waits out any in-flight
  /// flush first so the outcome is deterministic.
  void DropVolatileTail();

  /// Restart log scan hygiene: physically truncates the log to its clean
  /// frame prefix, discarding the torn/corrupt tail a crash mid-flush left
  /// behind (a real scan stops at the first checksum mismatch and truncates
  /// there, so later appends cannot hide behind garbage). Returns the number
  /// of garbage bytes discarded.
  size_t DropTornTail();

  /// Installs a fault injector on the sync path (nullptr = none; must
  /// outlive the LogManager).
  void SetFaultInjector(FaultInjector* injector) {
    std::lock_guard<std::mutex> lock(mu_);
    injector_ = injector;
  }

  /// Resolves the WAL metric instruments (wal.syncs, wal.sync_records,
  /// wal.sync_ns, wal.fsyncs, wal.group_size, wal.fsync_ns) from `metrics`
  /// (nullptr = none; the registry must outlive the LogManager).
  void SetMetrics(obs::MetricsRegistry* metrics);

  /// Visits every durable record in log order without copying the log
  /// (recovery's analysis pass). Stops early if `fn` returns non-OK and
  /// returns that status. The log is locked for the duration; `fn` must not
  /// call back into the LogManager.
  Status ScanDurable(const std::function<Status(const LogRecord&)>& fn) const;

  /// Copies the durable records (test convenience; recovery uses
  /// ScanDurable).
  std::vector<LogRecord> DurableSnapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_;
  }

  /// Discards records of completed bulk deletes (log truncation after kEnd)
  /// and rewrites the backend with the kept suffix.
  void TruncateCompleted();

  size_t durable_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_.size();
  }

 private:
  /// Leader flush: encodes and appends the current volatile batch, fsyncs,
  /// and publishes the result. Called with `lock` held and no flush in
  /// flight; drops the lock around the physical I/O.
  void FlushLocked(std::unique_lock<std::mutex>& lock);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t last_bd_id_ = 0;
  /// Decoded mirror of the backend's clean frames, in log order.
  std::vector<LogRecord> durable_;
  std::vector<LogRecord> volatile_;
  /// Monotone flush ordinals: a record appended as the N-th overall is
  /// durable once durable_seq_ >= N. Invariant (holding mu_, no flush in
  /// flight): appended_seq_ - durable_seq_ == volatile_.size(). Lost batches
  /// (injected crash, I/O error) rewind appended_seq_ — their records will
  /// never become durable. Written only under mu_; atomic so the buffer
  /// pool's unpin stamp can read it lock-free.
  std::atomic<uint64_t> appended_seq_{0};
  uint64_t durable_seq_ = 0;
  bool sync_in_flight_ = false;
  bool group_commit_ = true;
  /// Bytes of verified frames at the front of the backend; the backend may
  /// additionally hold a torn tail of garbage after an interrupted flush.
  size_t clean_bytes_ = 0;
  bool torn_tail_ = false;
  std::unique_ptr<WalBackend> backend_;
  Status open_status_;
  FaultInjector* injector_ = nullptr;
  obs::Counter* syncs_counter_ = nullptr;
  obs::Counter* fsyncs_counter_ = nullptr;
  obs::Histogram* sync_records_hist_ = nullptr;
  obs::Histogram* sync_ns_hist_ = nullptr;
  obs::Histogram* group_size_hist_ = nullptr;
  obs::Histogram* fsync_ns_hist_ = nullptr;
};

}  // namespace bulkdel

#endif  // BULKDEL_RECOVERY_LOG_MANAGER_H_
