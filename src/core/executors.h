#ifndef BULKDEL_CORE_EXECUTORS_H_
#define BULKDEL_CORE_EXECUTORS_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/exec_context.h"
#include "core/report.h"
#include "util/stopwatch.h"

// Per-phase measurement lives in core/exec_context.h: PhaseScope owns one
// IoAttribution per phase (installed on the executing thread for the scope's
// lifetime), replacing the old PhaseTracker that scraped the DiskManager's
// global counters — a pattern that both lost phases on unbalanced Begin/End
// and broke down as soon as two phases overlapped.

namespace bulkdel {

/// Record-at-a-time execution (the paper's traditional/horizontal baseline):
/// probe the key index per key, delete the record from the table and from
/// every index before the next record.
Result<BulkDeleteReport> ExecuteTraditional(ExecContext* ctx, TableDef* table,
                                            IndexDef* key_index,
                                            const BulkDeleteSpec& spec,
                                            bool sort_first);

/// Drop every secondary index, delete traditionally using the key index,
/// then rebuild the dropped indices with external sort + bulk load.
Result<BulkDeleteReport> ExecuteDropCreate(ExecContext* ctx, TableDef* table,
                                           IndexDef* key_index,
                                           const BulkDeleteSpec& spec);

/// Vertical set-oriented execution following `plan` (the paper's
/// contribution), with optional WAL/checkpoints and concurrency protocols.
/// The plan's phase DAG is executed by a topological scheduler; with
/// `DatabaseOptions::exec_threads > 1`, independent secondary-index phases
/// run concurrently on a worker pool.
Result<BulkDeleteReport> ExecuteVertical(ExecContext* ctx, TableDef* table,
                                         IndexDef* key_index,
                                         const BulkDeleteSpec& spec,
                                         const BulkDeletePlan& plan);

/// State of an interrupted bulk delete, reassembled from the durable log by
/// the recovery manager.
struct RecoveredBulkDelete {
  uint64_t bd_id = 0;
  std::string table;
  std::string key_column;
  std::set<std::string> phases_done;
  bool committed = false;

  /// Range-predicate statement (kBegin carried [lo,hi] instead of a key
  /// list). Resume re-runs the range passes idempotently.
  bool is_range = false;
  int64_t range_lo = 0;
  int64_t range_hi = 0;
  /// Heap pages whose kExtentDrop record is durable: re-dropped (if still
  /// chained) and freed by the resumed finalize phase.
  std::vector<PageId> extent_pages;
  /// Index leaves whose kRangeLeafRun record is durable. Their frees were
  /// deferred past the (never-reached) End record, so the resumed finalize
  /// phase reclaims them; re-dropped ones show up in both lists and are
  /// freed once.
  std::vector<PageId> leaf_pages;

  struct List {
    std::vector<PageId> pages;
    uint64_t count = 0;
  };
  /// Materialized intermediate lists by label ("input-keys", "rids",
  /// "feed:<index>").
  std::map<std::string, List> lists;

  /// WAL: entries removed from the key index after its last checkpoint.
  std::vector<KeyRid> wal_index_entries;
  /// WAL: rows removed from the table after its last checkpoint, with the
  /// projected secondary-index key values.
  std::vector<std::pair<Rid, std::vector<int64_t>>> wal_rows;

  /// §3.1 concurrent-updater DML logged while indices were off-line, in
  /// statement order. These are the single source of truth for updater
  /// durability: recovery replays them idempotently over the heap and every
  /// index after the bulk delete itself has been rolled forward.
  struct UpdaterOp {
    bool is_insert = true;
    Rid rid;
    std::vector<int64_t> values;  ///< full row (int columns, schema order)
  };
  std::vector<UpdaterOp> updater_ops;
  /// Scratch pages named by kSideFileSpill records; freed (idempotently)
  /// during recovery — the ops they held are re-derived from updater_ops.
  std::vector<PageId> sidefile_pages;
};

/// Rolls an interrupted bulk delete *forward* to completion (paper §3.2).
Result<BulkDeleteReport> ResumeVertical(Database* db,
                                        const RecoveredBulkDelete& state);

}  // namespace bulkdel

#endif  // BULKDEL_CORE_EXECUTORS_H_
