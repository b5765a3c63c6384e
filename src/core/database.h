#ifndef BULKDEL_CORE_DATABASE_H_
#define BULKDEL_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/report.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "plan/planner.h"
#include "recovery/log_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "txn/lock_manager.h"
#include "util/result.h"

namespace bulkdel {

class ExecContext;

/// Which protocol concurrent updaters use while indices are off-line during
/// a bulk delete (paper §3.1). kNone runs the statement fully exclusively.
enum class ConcurrencyProtocol { kNone, kSideFile, kDirectPropagation };

/// Which durable medium backs the page store and the WAL.
///  * kSim: in-memory page vector + in-memory WAL image, timed by the
///    simulated DiskModel — deterministic, host-independent (the paper
///    figures' backend).
///  * kFile: real files in DatabaseOptions::path (pages.db + wal.log), with
///    fsync barriers — wall-clock numbers and true crash/reopen semantics.
/// The simulated I/O charge sequence is identical on both: the DiskModel
/// accounting runs before the backing-specific data movement, never after.
enum class StorageBackend { kSim, kFile };

struct DatabaseOptions {
  /// The experiment's "available main memory": sizes the buffer pool and
  /// bounds sorting / hash tables (the paper varies this 2–10 MB).
  size_t memory_budget_bytes = 5ull << 20;
  ReorgMode reorg = ReorgMode::kFreeAtEmpty;
  ConcurrencyProtocol concurrency = ConcurrencyProtocol::kNone;
  /// Write the bulk-delete WAL + checkpoints so interrupted statements can be
  /// rolled forward (§3.2). Off for pure benchmarking runs.
  bool enable_recovery_log = false;
  /// Entries per latch window while processing off-line indices; smaller
  /// values let concurrent updaters interleave more often.
  size_t bulk_chunk_entries = 8192;
  /// kSideFile protocol: ops buffered per side-file shard before the tail is
  /// spilled to scratch pages through the DiskManager (bounds the memory a
  /// long catch-up can pin). Tests shrink this to exercise spilling.
  size_t side_file_spill_ops = 4096;
  /// Worker threads for the phase-DAG scheduler. 1 (the default) executes
  /// phases inline in the canonical serial order — identical behavior to the
  /// historical linear step list. Higher values let independent
  /// per-secondary-index phases overlap; simulated I/O totals stay identical
  /// because attribution classifies sequentiality per phase.
  int exec_threads = 1;
  /// Buffer-pool lock striping: number of sub-pools (see docs/BUFFERPOOL.md).
  /// 0 = auto: 8 shards when exec_threads > 1, a single shard otherwise. The
  /// pool clamps the request so tiny budgets never starve a shard.
  size_t pool_shards = 0;
  /// Leaf read-ahead window in pages: how far ahead the B-tree leaf passes
  /// and the heap table's sorted-RID pass prefetch. 0 disables read-ahead.
  /// Any value keeps simulated I/O identical (see docs/BUFFERPOOL.md).
  size_t readahead_pages = 0;
  /// Batch adjacent dirty eviction victims into one sequential write run.
  /// This changes the simulated write classification (random eviction writes
  /// become sequential), so it is off by default and excluded from the
  /// I/O-identity guarantee.
  bool coalesce_writebacks = false;
  /// Record spans and instants into the process-wide obs::TraceRecorder
  /// (phase begin/end, pool fetch/evict/flush, read-ahead, WAL sync,
  /// checkpoints) for --perfetto-out export. Also unlocks the clock-reading
  /// latency histograms (bp.fetch_ns, latch waits, wal.sync_ns). Off by
  /// default: the instrumented hot paths then pay one relaxed atomic load.
  /// Tracing never touches the DiskManager, so simulated per-phase I/O is
  /// bit-identical with this on or off (see docs/OBSERVABILITY.md).
  bool trace_spans = false;
  /// Test seam: invoked by every PhaseScope right after the phase's begin
  /// timestamp is taken, on the thread that runs the phase. Lets tests
  /// rendezvous concurrently dispatched phases (a single-CPU host gives no
  /// guarantee that two runnable workers interleave within a short phase).
  /// Must not throw; must not block when `exec_threads == 1`.
  std::function<void(const std::string& phase_name)> phase_begin_hook;
  /// Deterministic fault injection (crash-recovery testing): wired through
  /// the disk, buffer-pool, log-sync and executor checkpoint paths. Shared
  /// so the test harness keeps control of arming/disarming. Null in normal
  /// operation — the hot paths then pay a single pointer test.
  std::shared_ptr<FaultInjector> fault_injector;
  /// Durable medium (see StorageBackend). A non-empty `path` implies kFile
  /// for backward compatibility.
  StorageBackend backend = StorageBackend::kSim;
  /// kFile: directory holding the durable files (`pages.db`, `wal.log`, and
  /// the clean-shutdown sidecar); created if missing. Empty = in-memory.
  std::string path;
  /// WAL group commit (file and sim backends alike): concurrent log syncers
  /// coalesce onto one leader flush/fsync per batch. Off = one flush+fsync
  /// per Sync() call (the ablation baseline).
  bool wal_group_commit = true;
  /// Share one derivation (index lookup + RID sort + fetch pass) of the
  /// doomed row set across every foreign key fanning out of a bulk-deleted
  /// table. Off re-runs the derivation per FK — the per-FK-naive baseline
  /// of bench_ablation_cascade. Phase ordering (every RESTRICT before any
  /// CASCADE mutation) is unconditional; only the derivation cost toggles.
  bool fk_shared_sort = true;
  /// Verified-erasure mode: after a statement's End record is durable,
  /// zero the dead tuple bytes in surviving heap pages and overwrite
  /// dropped extent/leaf/scratch pages with zeros (then flush). Off by
  /// default: the extra writes break the simulated-I/O identity the
  /// default configuration guarantees. Covers vertical bulk deletes and
  /// row-path DML; see docs/CONSTRAINTS.md for the durability argument and
  /// the scavenger test.
  bool scrub_deleted_pages = false;
};

/// Predicate class of a bulk delete: an explicit key list (the paper's
/// table D) or a contiguous key range [lo, hi] (BETWEEN). Ranges are
/// first-class — they are *not* expanded into point keys; the predicate is
/// evaluated at execution time inside the statement's exclusive-lock window,
/// so rows entering the range between parse and execution still die.
enum class DeletePredicate : uint8_t { kKeys, kRange };

/// What to delete: the paper's
///   DELETE FROM R WHERE R.A IN (SELECT D.A FROM D)
/// with `table` = R, `key_column` = A and `keys` = the contents of D —
/// or, with `predicate == kRange`,
///   DELETE FROM R WHERE R.A BETWEEN lo AND hi
/// with `keys` empty and [range_lo, range_hi] carried symbolically.
struct BulkDeleteSpec {
  std::string table;
  std::string key_column;
  DeletePredicate predicate = DeletePredicate::kKeys;
  std::vector<int64_t> keys;
  /// The keys are already sorted ascending (skips the sort phase of merge
  /// plans; the traditional executor still probes them in the given order).
  bool keys_sorted = false;
  /// Inclusive bounds, meaningful when predicate == kRange. An inverted
  /// range (lo > hi) is empty and deletes zero rows, not an error.
  int64_t range_lo = 0;
  int64_t range_hi = 0;

  bool is_range() const { return predicate == DeletePredicate::kRange; }
  bool range_empty() const { return is_range() && range_lo > range_hi; }
};

/// The database façade: storage + catalog + planner + executors.
///
/// Typical use:
///   auto db = Database::Create(opts).TakeValue();
///   db->CreateTable("R", schema);
///   db->CreateIndex("R", "A", {.unique = true});
///   ... load ...
///   auto report = db->BulkDelete(spec, Strategy::kOptimizer);
class Database {
 public:
  static Result<std::unique_ptr<Database>> Create(DatabaseOptions options);

  /// Reopens an existing file-backed database from `options.path` (which
  /// must name a directory a previous Create/Close or crashed process left
  /// behind): scans the WAL, loads the catalog and rolls any interrupted
  /// bulk delete forward — the restart path of §3.2, against real files.
  static Result<std::unique_ptr<Database>> Open(DatabaseOptions options);

  /// Clean shutdown (file backend): checkpoints, fsyncs the page file and
  /// writes the clean-shutdown sidecar so a later Open restores the free
  /// list. No-op beyond the checkpoint for the sim backend.
  Status Close();

  /// The effective durable medium (kFile if `options.path` is set).
  StorageBackend storage_backend() const {
    return options_.path.empty() ? StorageBackend::kSim : StorageBackend::kFile;
  }

  // -- DDL ------------------------------------------------------------------
  Result<TableDef*> CreateTable(const std::string& name, const Schema& schema);
  Result<IndexDef*> CreateIndex(const std::string& table,
                                const std::string& column,
                                IndexOptions options = {},
                                bool clustered = false);
  Status DropIndex(const std::string& table, const std::string& column);

  /// FOREIGN KEY child(column) REFERENCES parent(column) with RESTRICT or
  /// CASCADE semantics. Validates existing data (every child value must
  /// have a parent row). The parent column must carry a unique index.
  Status AddForeignKey(const std::string& child_table,
                       const std::string& child_column,
                       const std::string& parent_table,
                       const std::string& parent_column,
                       FkAction action = FkAction::kRestrict);
  TableDef* GetTable(const std::string& name) {
    return catalog_->GetTable(name);
  }
  IndexDef* GetIndex(const std::string& table, const std::string& column) {
    return catalog_->GetIndex(table, column);
  }

  // -- DML (record-at-a-time, index-maintaining, concurrency-aware) ---------
  Result<Rid> InsertRow(const std::string& table,
                        const std::vector<int64_t>& int_values);
  Status DeleteRow(const std::string& table, const Rid& rid);
  Result<std::vector<int64_t>> GetRow(const std::string& table,
                                      const Rid& rid);

  // -- Bulk delete ------------------------------------------------------------
  Result<BulkDeleteReport> BulkDelete(const BulkDeleteSpec& spec,
                                      Strategy strategy);
  /// The plan the given strategy would run, without executing it.
  Result<BulkDeletePlan> ExplainBulkDelete(const BulkDeleteSpec& spec,
                                           Strategy strategy);

  /// Bulk UPDATE via bulk delete + re-insert on the affected index (§1's
  /// Emp.salary example): sets `set_column` += delta for every row whose
  /// `filter_column` lies in [lo, hi].
  Result<BulkDeleteReport> BulkUpdateColumn(const std::string& table,
                                            const std::string& set_column,
                                            int64_t delta,
                                            const std::string& filter_column,
                                            int64_t lo, int64_t hi);

  // -- Maintenance / introspection -------------------------------------------
  /// Flushes everything (pages, metas, catalog) and syncs the log.
  Status Checkpoint();
  /// Structural validation of every table and index, plus cross-checks that
  /// each index holds exactly one entry per (indexed column, live row).
  Status VerifyIntegrity();

  /// Crash testing: discard all volatile state (buffer pool, catalog cache,
  /// un-synced log tail), then reopen from disk and run recovery, finishing
  /// any interrupted bulk delete forward.
  Status SimulateCrashAndRecover();

  /// Executor-internal (§3.1): marks `bd_id` as the bulk delete whose WAL
  /// covers concurrent updater DML from now on (0 clears). While set,
  /// InsertRow/DeleteRow write kUpdaterRow records before mutating.
  void SetUpdaterLoggingId(uint64_t bd_id) {
    active_bd_id_.store(bd_id, std::memory_order_release);
  }

  FaultInjector* fault_injector() { return options_.fault_injector.get(); }
  /// Fault-site hook for executor-level sites; no-op without an injector.
  Status CheckFault(const char* site, const std::string& detail = {}) {
    FaultInjector* injector = options_.fault_injector.get();
    return injector != nullptr ? injector->Check(site, detail) : Status::OK();
  }

  /// Per-database metric instruments (counters / histograms), wired into the
  /// pool, WAL, disk and executors at Create(). Each statement's report gets
  /// the snapshot delta across its run.
  obs::MetricsRegistry& metrics() { return metrics_; }

  DiskManager& disk() { return *disk_; }
  BufferPool& pool() { return *pool_; }
  Catalog& catalog() { return *catalog_; }
  LockManager& locks() { return *locks_; }
  LogManager& log() { return *log_; }
  const DatabaseOptions& options() const { return options_; }

  /// Planner inputs derived from live statistics.
  PlannerInput MakePlannerInput(TableDef* table, IndexDef* key_index,
                                uint64_t n_delete, bool keys_sorted) const;

  /// Internal entry points used by the constraint machinery to thread the
  /// set of tables currently being cascaded through (cycle detection).
  Result<BulkDeleteReport> BulkDeleteWithCascadePath(
      const BulkDeleteSpec& spec, Strategy strategy,
      std::set<std::string>* cascade_path);
  Status DeleteRowWithCascadePath(const std::string& table, const Rid& rid,
                                  std::set<std::string>* cascade_path);

 private:
  explicit Database(DatabaseOptions options);

  /// Runs one bulk delete — plan, executor dispatch, backend/plan fill —
  /// with NO foreign-key processing, against the caller's ExecContext.
  /// Phase B of the two-phase cascade engine executes child legs and the
  /// parent delete through here.
  Result<BulkDeleteReport> ExecuteBulkDeletePlanned(ExecContext* ctx,
                                                    const BulkDeleteSpec& spec,
                                                    Strategy strategy);

  /// Deletes one row (heap + indices + WAL), skipping FK processing: the
  /// Phase-B executor of planned row cascades. `missing_ok` tolerates RIDs
  /// already removed by an overlapping cascade leg (diamond fan-out).
  Status DeleteRowNoFk(const std::string& table, const Rid& rid,
                       bool missing_ok);

  /// Builds and wires the storage stack (disk, WAL, pool, catalog, locks,
  /// fault injector, metrics, pre-writeback hook) against the configured
  /// backend. `truncate` starts fresh files; false reopens existing ones.
  /// Shared by Create, Open and the file-backed crash-reopen path.
  Status WireStorage(bool truncate);

  Status ApplyIndexInsert(TableDef* table, IndexDef* index, int64_t key,
                          const Rid& rid);
  Status ApplyIndexDelete(TableDef* table, IndexDef* index, int64_t key,
                          const Rid& rid);
  /// Side-file protocol: admit through the epoch gate and append, with the
  /// fault site + WAL diagnostics. Returns true if the op was absorbed by
  /// the side-file (status in *status); false = index is no longer in
  /// side-file mode, caller should apply directly.
  bool TrySideFileAppend(IndexDef* index, const SideFileOp& op,
                         Status* status);
  /// kUpdaterRow bookkeeping: the id of the bulk delete whose WAL covers
  /// concurrent updater DML right now (0 = none; set around the §3.1
  /// off-line window by the vertical executor when logging is on).
  uint64_t updater_logging_id() const {
    return options_.enable_recovery_log
               ? active_bd_id_.load(std::memory_order_acquire)
               : 0;
  }
  /// Returns kAborted once the fault injector has tripped: a dead process
  /// must not keep acknowledging updater DML.
  Status CheckAlive() const {
    FaultInjector* injector = options_.fault_injector.get();
    if (injector != nullptr && injector->tripped()) {
      return Status::Aborted("process dead (injected fault tripped)");
    }
    return Status::OK();
  }
  static uint32_t HeapPageTuplesPerPage(TableDef* table);

  DatabaseOptions options_;
  /// Declared before the storage objects that cache instrument pointers so it
  /// outlives them on destruction.
  obs::MetricsRegistry metrics_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<LockManager> locks_;
  /// Serializes whole bulk-delete statements (see BulkDelete()); the §3.1
  /// concurrency protocols admit record-at-a-time DML during a statement,
  /// not a second statement.
  std::mutex bulk_delete_statement_mu_;
  /// Bulk delete currently holding indices off-line with recovery logging
  /// on; gates the kUpdaterRow WAL path in InsertRow/DeleteRow.
  std::atomic<uint64_t> active_bd_id_{0};
  /// Side-file instruments (resolved at Create()).
  obs::Counter* sidefile_appends_counter_ = nullptr;
  obs::Counter* sidefile_spill_pages_counter_ = nullptr;
};

}  // namespace bulkdel

#endif  // BULKDEL_CORE_DATABASE_H_
