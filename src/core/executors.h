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

/// One leg of a vertical bulk delete — the statement's own table, or a
/// table one of its CASCADE foreign keys reaches, keyed by that FK's column
/// — with the plan its passes follow.
struct VerticalLeg {
  TableDef* table = nullptr;
  /// Index on `spec.key_column`; null when the column has no access path.
  IndexDef* key_index = nullptr;
  BulkDeleteSpec spec;
  BulkDeletePlan plan;
};

/// Vertical set-oriented execution (the paper's contribution), with optional
/// WAL/checkpoints and concurrency protocols. `legs` is one statement: the
/// CASCADE legs (deepest descendants first) followed by the statement's own
/// table, all under one WAL envelope (one bd_id, one commit, one End). Every
/// leg's passes are nodes of one phase DAG with one durability barrier per
/// level (key-index passes, table passes, finalize); with
/// `DatabaseOptions::exec_threads > 1` independent passes run concurrently
/// on a worker pool.
Result<BulkDeleteReport> ExecuteVertical(ExecContext* ctx,
                                         std::vector<VerticalLeg> legs);

/// A leg's id in the WAL: "<table>.<key column>". Its kBegin declares it
/// (label = table, aux = key column), kExtentDrop records carry it as their
/// label, and phase, list and entry records label a leg-local name after it
/// (LegLabel). The table pass logs no record per row: a resumed pass
/// re-derives its feeds from its durable input and the dead tuples' bytes.
inline std::string LegId(const std::string& table,
                         const std::string& key_column) {
  return table + "." + key_column;
}

/// The WAL label of leg-local `name` ("table", "input-keys", ...) in leg
/// `leg_id`: "<leg id>/<name>".
inline std::string LegLabel(const std::string& leg_id,
                            const std::string& name) {
  return leg_id + "/" + name;
}

/// A leg record's label split into (leg id, leg-local name) at its last '/'
/// (leg-local names contain none); a bare label is a leg id.
inline std::pair<std::string, std::string> SplitLegLabel(
    const std::string& label) {
  size_t slash = label.rfind('/');
  if (slash == std::string::npos) return {label, std::string()};
  return {label.substr(0, slash), label.substr(slash + 1)};
}

/// One leg of an interrupted bulk delete, reassembled from the durable log
/// by the recovery manager: a table and the key column its delete list
/// names.
struct RecoveredLeg {
  std::string table;
  std::string key_column;
  std::set<std::string> phases_done;

  /// A table reached through two FK columns is two legs.
  std::string Id() const { return LegId(table, key_column); }

  /// Range-predicate leg (kBegin carried [lo,hi] instead of a key list).
  /// Resume re-runs the range passes idempotently.
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

  /// §3.1 concurrent-updater DML on this table logged while indices were
  /// off-line, in statement order (kept by the table's first leg only).
  /// These are the single source of truth for updater durability: recovery
  /// replays them idempotently over the heap and every index after the bulk
  /// delete itself has been rolled forward.
  struct UpdaterOp {
    bool is_insert = true;
    Rid rid;
    std::vector<int64_t> values;  ///< full row (int columns, schema order)
  };
  std::vector<UpdaterOp> updater_ops;
};

/// State of an interrupted bulk delete: its legs in the order of their
/// kBegin records (the statement's execution order).
struct RecoveredBulkDelete {
  uint64_t bd_id = 0;
  bool committed = false;
  /// Leg count every kBegin record carries; fewer durable legs means the
  /// envelope's opening never became durable.
  uint64_t legs_expected = 0;
  std::vector<RecoveredLeg> legs;
  /// Scratch pages named by kSideFileSpill records; freed (idempotently)
  /// during recovery — the ops they held are re-derived from updater_ops.
  std::vector<PageId> sidefile_pages;

  /// The leg whose Id() is `id`, or null when the statement has none.
  RecoveredLeg* FindLeg(const std::string& id) {
    for (RecoveredLeg& leg : legs) {
      if (leg.Id() == id) return &leg;
    }
    return nullptr;
  }
};

/// Rolls an interrupted bulk delete *forward* to completion (paper §3.2):
/// every leg through the same phase DAG as the original statement.
Result<BulkDeleteReport> ResumeVertical(Database* db,
                                        const RecoveredBulkDelete& state);

}  // namespace bulkdel

#endif  // BULKDEL_CORE_EXECUTORS_H_
