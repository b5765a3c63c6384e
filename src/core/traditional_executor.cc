// The paper's baseline: horizontal, record-at-a-time deletion. For every key
// in the delete list, the key index is probed root-to-leaf; the record is
// removed from the base table and then from *every* index individually
// before the next record is considered. Each index removal is another full
// root-to-leaf traversal — this is exactly the behaviour the paper measures
// as `traditional` (and, with a pre-sorted list, as `sorted/trad`).

#include "core/executors.h"
#include "sort/external_sort.h"

namespace bulkdel {

namespace {
/// Inner loop shared with the drop & create executor (which deletes
/// traditionally while only the key index remains).
Status TraditionalCore(TableDef* table, IndexDef* key_index,
                       const std::vector<int64_t>& keys, uint64_t* rows_out,
                       uint64_t* entries_out) {
  const Schema& schema = *table->schema;
  std::vector<char> tuple(schema.tuple_size());
  uint64_t rows = 0;
  uint64_t entries = 0;
  for (int64_t key : keys) {
    // One record at a time: find all matches for this key, then delete each
    // from the table and from every index before moving on.
    BULKDEL_ASSIGN_OR_RETURN(std::vector<Rid> rids,
                             key_index->tree->Search(key));
    for (const Rid& rid : rids) {
      BULKDEL_RETURN_IF_ERROR(table->table->Delete(rid, tuple.data()));
      ++rows;
      for (auto& index : table->indices) {
        int64_t index_key = schema.GetInt(
            tuple.data(), static_cast<size_t>(index->column));
        BULKDEL_RETURN_IF_ERROR(index->tree->Delete(index_key, rid));
        ++entries;
      }
    }
  }
  *rows_out = rows;
  *entries_out = entries;
  return Status::OK();
}

/// Materializes a range predicate's doomed keys from the key index. Must run
/// inside the statement's exclusive table lock — evaluating the predicate any
/// earlier would race concurrent inserts into the range (the extract-then-
/// execute race the range predicate class exists to close).
Result<std::vector<int64_t>> RangeKeys(IndexDef* key_index,
                                       const BulkDeleteSpec& spec) {
  std::vector<int64_t> keys;
  if (spec.range_empty()) return keys;
  BULKDEL_RETURN_IF_ERROR(key_index->tree->RangeScan(
      spec.range_lo, spec.range_hi, [&](int64_t key, const Rid&) {
        if (keys.empty() || keys.back() != key) keys.push_back(key);
        return Status::OK();
      }));
  return keys;
}

/// The statement's metas and the pool, written back without an fsync.
Status FinalizeStructures(ExecContext* ctx, TableDef* table) {
  PhaseScope scope(ctx, "finalize");
  return ctx->db()->FlushStructures({table});
}
}  // namespace

Result<BulkDeleteReport> ExecuteTraditional(ExecContext* ctx, TableDef* table,
                                            IndexDef* key_index,
                                            const BulkDeleteSpec& spec,
                                            bool sort_first) {
  Database* db = ctx->db();
  BulkDeleteReport report;
  report.strategy_used =
      sort_first ? Strategy::kTraditionalSorted : Strategy::kTraditional;
  Stopwatch total;

  db->locks().LockExclusive(table->name);
  Status status = [&]() -> Status {
    std::vector<int64_t> keys = spec.keys;
    if (spec.is_range()) {
      // Ranges materialize under the lock and arrive in key order already.
      PhaseScope scope(ctx, "range-scan-keys");
      BULKDEL_ASSIGN_OR_RETURN(keys, RangeKeys(key_index, spec));
      scope.set_items(keys.size());
    } else if (sort_first && !spec.keys_sorted) {
      PhaseScope scope(ctx, "sort-keys");
      BULKDEL_RETURN_IF_ERROR(SortKeys(
          &db->disk(), db->options().memory_budget_bytes, &keys));
      scope.set_items(keys.size());
    }
    {
      PhaseScope scope(ctx, "record-at-a-time");
      uint64_t rows = 0, entries = 0;
      BULKDEL_RETURN_IF_ERROR(
          TraditionalCore(table, key_index, keys, &rows, &entries));
      scope.set_items(rows);
      report.rows_deleted = rows;
      report.index_entries_deleted = entries;
    }
    return FinalizeStructures(ctx, table);
  }();
  db->locks().UnlockExclusive(table->name);
  BULKDEL_RETURN_IF_ERROR(status);

  report.phases = ctx->TakePhases();
  report.io = ctx->AttributedTotal();
  report.wall_micros = total.ElapsedMicros();
  return report;
}

Result<BulkDeleteReport> ExecuteDropCreate(ExecContext* ctx, TableDef* table,
                                           IndexDef* key_index,
                                           const BulkDeleteSpec& spec) {
  Database* db = ctx->db();
  BulkDeleteReport report;
  report.strategy_used = Strategy::kDropCreate;
  Stopwatch total;

  db->locks().LockExclusive(table->name);
  Status status = [&]() -> Status {
    // Remember and drop every secondary index; the key index must stay — it
    // is the access path that locates the records to delete.
    struct DroppedDef {
      std::string column;
      IndexOptions options;
      bool clustered;
    };
    std::vector<DroppedDef> dropped;
    {
      PhaseScope scope(ctx, "drop-indexes");
      for (auto& index : table->indices) {
        if (index.get() == key_index) continue;
        dropped.push_back(DroppedDef{
            table->schema->column(static_cast<size_t>(index->column)).name,
            index->options, index->clustered});
      }
      for (const DroppedDef& d : dropped) {
        BULKDEL_RETURN_IF_ERROR(db->DropIndex(table->name, d.column));
      }
      scope.set_items(dropped.size());
    }

    // Traditional (sorted) delete against the remaining structures.
    std::vector<int64_t> keys = spec.keys;
    if (spec.is_range()) {
      PhaseScope scope(ctx, "range-scan-keys");
      BULKDEL_ASSIGN_OR_RETURN(keys, RangeKeys(key_index, spec));
      scope.set_items(keys.size());
    } else if (!spec.keys_sorted) {
      PhaseScope scope(ctx, "sort-keys");
      BULKDEL_RETURN_IF_ERROR(SortKeys(
          &db->disk(), db->options().memory_budget_bytes, &keys));
      scope.set_items(keys.size());
    }
    {
      PhaseScope scope(ctx, "delete");
      uint64_t rows = 0, entries = 0;
      BULKDEL_RETURN_IF_ERROR(
          TraditionalCore(table, key_index, keys, &rows, &entries));
      scope.set_items(rows);
      report.rows_deleted = rows;
      report.index_entries_deleted = entries;
    }

    // Rebuild each dropped index: CreateIndex backfills it by a heap scan,
    // an external sort and a bulk load.
    for (const DroppedDef& d : dropped) {
      PhaseScope scope(ctx, "rebuild:" + table->name + "." + d.column,
                       "delete");
      BULKDEL_ASSIGN_OR_RETURN(
          IndexDef * index,
          db->CreateIndex(table->name, d.column, d.options, d.clustered));
      scope.set_items(index->tree->entry_count());
    }
    return FinalizeStructures(ctx, table);
  }();
  db->locks().UnlockExclusive(table->name);
  BULKDEL_RETURN_IF_ERROR(status);

  report.phases = ctx->TakePhases();
  report.io = ctx->AttributedTotal();
  report.wall_micros = total.ElapsedMicros();
  return report;
}

}  // namespace bulkdel
