#include "core/database.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <thread>

#include <algorithm>

#include "core/constraints.h"
#include "core/executors.h"
#include "obs/trace_recorder.h"
#include "recovery/recovery_manager.h"
#include "sort/external_sort.h"

namespace bulkdel {

Database::Database(DatabaseOptions options) : options_(std::move(options)) {
  // Back-compat: a non-empty path always meant file backing.
  if (!options_.path.empty()) options_.backend = StorageBackend::kFile;
}

Status Database::WireStorage(bool truncate) {
  if (options_.backend == StorageBackend::kFile) {
    if (options_.path.empty()) {
      return Status::InvalidArgument(
          "file storage backend requires DatabaseOptions::path");
    }
    if (::mkdir(options_.path.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("mkdir " + options_.path + ": " +
                             std::strerror(errno));
    }
    disk_ = std::make_unique<DiskManager>(options_.path + "/pages.db",
                                          truncate, DiskModel());
    log_ = std::make_unique<LogManager>(options_.path + "/wal.log", truncate);
    BULKDEL_RETURN_IF_ERROR(log_->open_status());
  } else {
    disk_ = std::make_unique<DiskManager>(DiskModel());
    log_ = std::make_unique<LogManager>();
  }
  log_->SetGroupCommit(options_.wal_group_commit);
  pool_ = std::make_unique<BufferPool>(disk_.get(),
                                      options_.memory_budget_bytes);
  catalog_ = std::make_unique<Catalog>(pool_.get());
  locks_ = std::make_unique<LockManager>();
  if (options_.fault_injector != nullptr) {
    FaultInjector* injector = options_.fault_injector.get();
    disk_->SetFaultInjector(injector);
    pool_->SetFaultInjector(injector);
    log_->SetFaultInjector(injector);
  }
  // Metric wiring: storage objects resolve their instruments once and then
  // update through raw pointers; the registry lives in the Database.
  disk_->SetMetrics(&metrics_);
  pool_->SetMetrics(&metrics_);
  log_->SetMetrics(&metrics_);
  sidefile_appends_counter_ =
      metrics_.counter(obs::metric_names::kSideFileAppends);
  sidefile_spill_pages_counter_ =
      metrics_.counter(obs::metric_names::kSideFileSpillPages);
  if (options_.trace_spans) {
    obs::TraceRecorder::Global().SetEnabled(true);
  }
  if (options_.enable_recovery_log) {
    LogManager* log = log_.get();
    pool_->SetWalRule(&log->appended_seq(),
                      [log](uint64_t seq) { return log->SyncTo(seq); });
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> Database::Create(DatabaseOptions options) {
  std::unique_ptr<Database> db(new Database(std::move(options)));
  BULKDEL_RETURN_IF_ERROR(db->WireStorage(/*truncate=*/true));
  BULKDEL_RETURN_IF_ERROR(db->catalog_->Format());
  return db;
}

Result<std::unique_ptr<Database>> Database::Open(DatabaseOptions options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("Database::Open requires a path");
  }
  options.backend = StorageBackend::kFile;
  std::unique_ptr<Database> db(new Database(std::move(options)));
  BULKDEL_RETURN_IF_ERROR(db->WireStorage(/*truncate=*/false));
  if (db->disk_->NumAllocatedPages() == 0) {
    return Status::NotFound("no database at " + db->options_.path);
  }
  // The catalog root is page 0 by construction (Format's first allocation).
  BULKDEL_RETURN_IF_ERROR(db->catalog_->Load(0));
  // Roll any bulk delete the previous process left interrupted forward
  // (§3.2). A cleanly closed database has an empty WAL and this is a no-op.
  BULKDEL_RETURN_IF_ERROR(RecoverDatabase(db.get()));
  return db;
}

Status Database::Close() {
  BULKDEL_RETURN_IF_ERROR(Checkpoint());
  return disk_->MarkCleanShutdown();
}

Result<TableDef*> Database::CreateTable(const std::string& name,
                                        const Schema& schema) {
  std::lock_guard<std::mutex> ddl(catalog_mu_);
  return catalog_->CreateTable(name, schema);
}

Result<IndexDef*> Database::CreateIndex(const std::string& table,
                                        const std::string& column,
                                        IndexOptions options, bool clustered) {
  std::unique_lock<std::mutex> ddl(catalog_mu_);
  BULKDEL_ASSIGN_OR_RETURN(
      IndexDef * index, catalog_->CreateIndex(table, column, options,
                                              clustered));
  ddl.unlock();
  // Backfill from existing rows: scan, external sort, bulk load — the same
  // pipeline the drop & create executor uses to rebuild indices.
  TableDef* t = GetTable(table);
  if (t->table->tuple_count() > 0) {
    const Schema& schema = *t->schema;
    int col = index->column;
    ExternalSorter<KeyRid> sorter(disk_.get(), options_.memory_budget_bytes);
    BULKDEL_RETURN_IF_ERROR(
        t->table->Scan([&](const Rid& rid, const char* tuple) {
          return sorter.Add(
              KeyRid(schema.GetInt(tuple, static_cast<size_t>(col)), rid));
        }));
    BULKDEL_ASSIGN_OR_RETURN(std::vector<KeyRid> entries,
                             sorter.FinishToVector());
    if (options.unique) {
      for (size_t i = 1; i < entries.size(); ++i) {
        if (entries[i].key == entries[i - 1].key) {
          BULKDEL_RETURN_IF_ERROR(DropIndex(table, column));
          return Status::FailedPrecondition(
              "cannot create unique index: duplicate value " +
              std::to_string(entries[i].key));
        }
      }
    }
    BULKDEL_RETURN_IF_ERROR(index->tree->BulkLoad(entries));
  }
  return index;
}

Status Database::DropIndex(const std::string& table,
                           const std::string& column) {
  std::unique_lock<std::mutex> ddl(catalog_mu_);
  IndexDef* found = catalog_->GetIndex(table, column);
  if (found == nullptr) {
    return Status::NotFound("no index on " + table + "." + column);
  }
  // A unique index backing a foreign key's parent side is load-bearing.
  for (const ForeignKeyDef& fk : catalog_->foreign_keys()) {
    if (fk.parent_table == table && fk.parent_column == found->column) {
      return Status::FailedPrecondition(
          "index " + found->name + " backs foreign key " + fk.Name());
    }
  }
  // Unlinked before its pages are freed: no flush walks a dropped index.
  BULKDEL_ASSIGN_OR_RETURN(std::unique_ptr<IndexDef> index,
                           catalog_->RemoveIndex(table, column));
  ddl.unlock();
  BULKDEL_RETURN_IF_ERROR(index->tree->Drop());
  ddl.lock();
  return catalog_->Persist();
}

bool Database::TrySideFileAppend(IndexDef* index, const SideFileOp& op,
                                 Status* status) {
  IndexConcurrencyState* cc = index->cc.get();
  while (cc->mode.load(std::memory_order_acquire) ==
         IndexMode::kOfflineSideFile) {
    if (!cc->side_file.TryEnterAppend()) {
      // Quiesce in progress: the mode is about to flip on-line. Spin on the
      // mode re-check rather than the gate — once the flip lands we fall
      // through to the direct path.
      std::this_thread::yield();
      continue;
    }
    // Admitted. The flip happens inside the quiesce window (which waits for
    // us), so the mode cannot change while we hold the gate — but it may
    // have flipped before we entered; re-check.
    if (cc->mode.load(std::memory_order_acquire) !=
        IndexMode::kOfflineSideFile) {
      cc->side_file.ExitAppend();
      break;
    }
    Status fault = CheckFault(fault_sites::kTxnSideFileAppend, index->name);
    if (!fault.ok()) {
      cc->side_file.ExitAppend();
      *status = fault;
      return true;
    }
    std::vector<PageId> spilled;
    Status s = cc->side_file.Append(op, &spilled);
    cc->side_file.ExitAppend();
    if (s.ok()) {
      sidefile_appends_counter_->Add(1);
      if (!spilled.empty()) {
        sidefile_spill_pages_counter_->Add(
            static_cast<int64_t>(spilled.size()));
      }
      uint64_t bd_id = updater_logging_id();
      if (bd_id != 0) {
        // Diagnostics only: replay is driven by kUpdaterRow records. The
        // spill record lets recovery reclaim the scratch pages.
        LogRecord append_rec;
        append_rec.type = LogRecordType::kSideFileAppend;
        append_rec.bd_id = bd_id;
        append_rec.label = index->name;
        log_->Append(std::move(append_rec));
        if (!spilled.empty()) {
          LogRecord spill_rec;
          spill_rec.type = LogRecordType::kSideFileSpill;
          spill_rec.bd_id = bd_id;
          spill_rec.label = index->name;
          spill_rec.pages = std::move(spilled);
          log_->Append(std::move(spill_rec));
        }
      }
    }
    *status = s;
    return true;
  }
  return false;
}

Status Database::ApplyIndexInsert(IndexDef* index, int64_t key,
                                  const Rid& rid) {
  Status side_file_status;
  if (TrySideFileAppend(index, SideFileOp{/*is_insert=*/true, key, rid},
                        &side_file_status)) {
    return side_file_status;
  }
  std::lock_guard<std::mutex> latch(index->cc->latch);
  // Decide the undeletable marker from the mode *under the latch*:
  // BringOnline clears the markers and flips the mode under this same
  // latch, so an insert can no longer slip a marked entry in after the
  // clearing pass ran.
  uint16_t flags =
      index->cc->mode.load(std::memory_order_acquire) ==
              IndexMode::kOfflineDirect
          ? BTreeNode::kEntryUndeletable
          : 0;
  if (flags != 0) {
    index->cc->undeletable_marks.fetch_add(1, std::memory_order_relaxed);
  }
  return index->tree->Insert(key, rid, flags);
}

Status Database::ApplyIndexDelete(IndexDef* index, int64_t key,
                                  const Rid& rid) {
  Status side_file_status;
  if (TrySideFileAppend(index, SideFileOp{/*is_insert=*/false, key, rid},
                        &side_file_status)) {
    return side_file_status;
  }
  std::lock_guard<std::mutex> latch(index->cc->latch);
  Status s = index->tree->Delete(key, rid);
  // A NotFound here can only mean the bulk deleter got to the entry first
  // (or a side-file replay raced a fresh delete); the end state is the same.
  if (s.IsNotFound()) return Status::OK();
  return s;
}

Result<Rid> Database::InsertRow(const std::string& table_name,
                                const std::vector<int64_t>& int_values) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  std::vector<char> tuple(t->schema->tuple_size(), 0);
  size_t vi = 0;
  for (size_t c = 0; c < t->schema->num_columns(); ++c) {
    if (t->schema->column(c).type != ColumnType::kInt64) continue;
    if (vi >= int_values.size()) {
      return Status::InvalidArgument("too few values for " + table_name);
    }
    t->schema->SetInt(tuple.data(), c, int_values[vi++]);
  }
  if (vi != int_values.size()) {
    return Status::InvalidArgument("too many values for " + table_name);
  }

  LockManager::SharedGuard lock(locks_.get(), table_name);
  BULKDEL_RETURN_IF_ERROR(CheckAlive());
  BULKDEL_RETURN_IF_ERROR(CheckChildInsert(this, t, tuple.data()));
  const uint64_t bd_id = updater_logging_id();
  if (bd_id != 0) {
    // Pre-check unique indices before logging the row record, so a plain
    // unique violation does not leave a kUpdaterRow record that recovery
    // would replay. (Unique indices stay on-line during the §3.1 window —
    // they are processed under the exclusive table lock before commit.)
    for (auto& index : t->indices) {
      if (!index->options.unique) continue;
      int64_t key =
          t->schema->GetInt(tuple.data(), static_cast<size_t>(index->column));
      std::lock_guard<std::mutex> latch(index->cc->latch);
      BULKDEL_ASSIGN_OR_RETURN(std::vector<Rid> hits,
                               index->tree->Search(key));
      if (!hits.empty()) {
        return Status::AlreadyExists("duplicate key " + std::to_string(key) +
                                     " in unique index " + index->name);
      }
    }
  }
  Rid rid;
  {
    std::lock_guard<std::mutex> heap(t->heap_latch);
    if (bd_id != 0) {
      // Record-before-mutation: predict the RID and log the whole row
      // first, so any durable partial effect implies a durable record (the
      // page is unpinned after the append, so its write-back forces the log
      // through this record — the pool's WAL rule).
      BULKDEL_ASSIGN_OR_RETURN(Rid predicted, t->table->PeekInsertRid());
      LogRecord rec;
      rec.type = LogRecordType::kUpdaterRow;
      rec.bd_id = bd_id;
      rec.label = table_name;
      rec.count = 1;  // insert
      rec.rid = predicted;
      rec.values = int_values;
      log_->Append(std::move(rec));
      BULKDEL_ASSIGN_OR_RETURN(rid, t->table->Insert(tuple.data()));
      if (!(rid == predicted)) {
        return Status::Internal("updater insert RID drifted from the " +
                                std::string("logged prediction"));
      }
    } else {
      BULKDEL_ASSIGN_OR_RETURN(rid, t->table->Insert(tuple.data()));
    }
  }
  Status index_status;
  size_t applied = 0;
  for (auto& index : t->indices) {
    int64_t key =
        t->schema->GetInt(tuple.data(), static_cast<size_t>(index->column));
    index_status = ApplyIndexInsert(index.get(), key, rid);
    if (!index_status.ok()) break;
    ++applied;
  }
  if (!index_status.ok()) {
    // Undo the already-applied index entries *and* the heap row, so a
    // failure midway leaves no orphans (the old path leaked entries into
    // the indices that had already accepted the key).
    for (size_t i = 0; i < applied; ++i) {
      auto& index = t->indices[i];
      int64_t key =
          t->schema->GetInt(tuple.data(), static_cast<size_t>(index->column));
      (void)ApplyIndexDelete(index.get(), key, rid);
    }
    std::lock_guard<std::mutex> heap(t->heap_latch);
    (void)t->table->Delete(rid);
    return index_status;
  }
  if (bd_id != 0) {
    // OK must imply durable: force the row record out, and refuse to
    // acknowledge if the process "died" during that sync.
    log_->Sync();
    BULKDEL_RETURN_IF_ERROR(CheckAlive());
  }
  return rid;
}

Status Database::DeleteRow(const std::string& table_name, const Rid& rid) {
  std::set<std::string> cascade_path;
  return DeleteRowWithCascadePath(table_name, rid, &cascade_path);
}

Status Database::DeleteRowWithCascadePath(
    const std::string& table_name, const Rid& rid,
    std::set<std::string>* cascade_path) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  LockManager::SharedGuard lock(locks_.get(), table_name);
  BULKDEL_RETURN_IF_ERROR(CheckAlive());
  std::vector<char> tuple(t->schema->tuple_size());
  {
    std::lock_guard<std::mutex> heap(t->heap_latch);
    BULKDEL_RETURN_IF_ERROR(t->table->Get(rid, tuple.data()));
  }
  // Phase A, read-only: every RESTRICT — direct or reached through a
  // CASCADE chain — is evaluated here, before any mutation, so a violation
  // leaves every table untouched regardless of the FKs' catalog order.
  std::vector<RowCascadeTarget> targets;
  BULKDEL_RETURN_IF_ERROR(
      PlanParentRowDelete(this, t, tuple.data(), cascade_path, &targets));
  // Phase B: deepest descendants first, then this row. A RID an earlier
  // overlapping leg already removed (diamond fan-out) is tolerated.
  for (const RowCascadeTarget& target : targets) {
    for (const Rid& child_rid : target.rids) {
      BULKDEL_RETURN_IF_ERROR(
          DeleteRowNoFk(target.table, child_rid, /*missing_ok=*/true));
    }
  }
  return DeleteRowNoFk(table_name, rid, /*missing_ok=*/false);
}

Status Database::DeleteRowNoFk(const std::string& table_name, const Rid& rid,
                               bool missing_ok) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  LockManager::SharedGuard lock(locks_.get(), table_name);
  BULKDEL_RETURN_IF_ERROR(CheckAlive());
  std::vector<char> tuple(t->schema->tuple_size());
  {
    std::lock_guard<std::mutex> heap(t->heap_latch);
    Status get = t->table->Get(rid, tuple.data());
    if (get.IsNotFound() && missing_ok) return Status::OK();
    BULKDEL_RETURN_IF_ERROR(get);
  }
  const uint64_t bd_id = updater_logging_id();
  {
    std::lock_guard<std::mutex> heap(t->heap_latch);
    if (bd_id != 0) {
      // Record-before-mutation, mirroring InsertRow: the full row goes into
      // the record so recovery can re-derive every index key.
      LogRecord rec;
      rec.type = LogRecordType::kUpdaterRow;
      rec.bd_id = bd_id;
      rec.label = table_name;
      rec.count = 0;  // delete
      rec.rid = rid;
      for (size_t c = 0; c < t->schema->num_columns(); ++c) {
        if (t->schema->column(c).type == ColumnType::kInt64) {
          rec.values.push_back(t->schema->GetInt(tuple.data(), c));
        }
      }
      log_->Append(std::move(rec));
    }
    {
      Status del = t->table->Delete(rid);
      if (del.IsNotFound() && missing_ok) return Status::OK();
      BULKDEL_RETURN_IF_ERROR(del);
    }
    if (options_.scrub_deleted_pages) {
      // Verified erasure: zero the dead slot's bytes while still under the
      // heap latch. Safe before the statement completes — the kUpdaterRow
      // record above carries the full row, and recovery never reads dead
      // slot bytes.
      (void)t->table->ScrubDeadSlots({rid}, /*skip_pages=*/{});
    }
  }
  for (auto& index : t->indices) {
    int64_t key =
        t->schema->GetInt(tuple.data(), static_cast<size_t>(index->column));
    BULKDEL_RETURN_IF_ERROR(ApplyIndexDelete(index.get(), key, rid));
  }
  if (bd_id != 0) {
    log_->Sync();
    BULKDEL_RETURN_IF_ERROR(CheckAlive());
  }
  return Status::OK();
}

Status Database::AddForeignKey(const std::string& child_table,
                               const std::string& child_column,
                               const std::string& parent_table,
                               const std::string& parent_column,
                               FkAction action) {
  // Validate existing data before registering: every child value must have
  // a parent row — done set-at-a-time with one merge lookup.
  TableDef* child = GetTable(child_table);
  TableDef* parent = GetTable(parent_table);
  if (child == nullptr || parent == nullptr) {
    return Status::NotFound("foreign key references unknown table");
  }
  int child_col = child->schema->FindColumn(child_column);
  int parent_col = parent->schema->FindColumn(parent_column);
  if (child_col < 0 || parent_col < 0) {
    return Status::NotFound("foreign key references unknown column");
  }
  IndexDef* parent_index = parent->FindIndexOnColumn(parent_col);
  if (parent_index == nullptr || !parent_index->options.unique) {
    return Status::FailedPrecondition(
        "foreign key parent column must carry a unique index");
  }
  std::vector<int64_t> child_values;
  child_values.reserve(child->table->tuple_count());
  const Schema& schema = *child->schema;
  BULKDEL_RETURN_IF_ERROR(
      child->table->Scan([&](const Rid&, const char* tuple) {
        child_values.push_back(
            schema.GetInt(tuple, static_cast<size_t>(child_col)));
        return Status::OK();
      }));
  std::sort(child_values.begin(), child_values.end());
  child_values.erase(
      std::unique(child_values.begin(), child_values.end()),
      child_values.end());
  BULKDEL_ASSIGN_OR_RETURN(
      uint64_t matched,
      parent_index->tree->CountMatchingSortedKeys(child_values));
  if (matched != child_values.size()) {
    return Status::FailedPrecondition(
        "existing data violates foreign key: " +
        std::to_string(child_values.size() - matched) +
        " child value(s) without parent");
  }
  std::lock_guard<std::mutex> ddl(catalog_mu_);
  return catalog_->AddForeignKey(child_table, child_column, parent_table,
                                 parent_column, action);
}

Result<std::vector<int64_t>> Database::GetRow(const std::string& table_name,
                                              const Rid& rid) {
  TableDef* t = GetTable(table_name);
  if (t == nullptr) return Status::NotFound("no table " + table_name);
  LockManager::SharedGuard lock(locks_.get(), table_name);
  std::vector<char> tuple(t->schema->tuple_size());
  {
    std::lock_guard<std::mutex> heap(t->heap_latch);
    BULKDEL_RETURN_IF_ERROR(t->table->Get(rid, tuple.data()));
  }
  std::vector<int64_t> values;
  for (size_t c = 0; c < t->schema->num_columns(); ++c) {
    if (t->schema->column(c).type == ColumnType::kInt64) {
      values.push_back(t->schema->GetInt(tuple.data(), c));
    }
  }
  return values;
}

PlannerInput Database::MakePlannerInput(TableDef* table, IndexDef* key_index,
                                        uint64_t n_delete,
                                        bool keys_sorted) const {
  PlannerInput input;
  input.table.tuples = table->table->tuple_count();
  input.table.pages = table->table->num_data_pages();
  input.table.tuples_per_page =
      std::max<uint32_t>(1, HeapPageTuplesPerPage(table));
  input.n_delete = n_delete;
  input.keys_sorted = keys_sorted;
  for (const auto& index : table->indices) {
    IndexInfo info;
    info.name = index->name;
    info.column = index->column;
    info.entries = index->tree->entry_count();
    info.leaves = index->tree->num_leaves();
    info.height = index->tree->height();
    info.unique = index->options.unique;
    info.priority = index->options.priority;
    info.clustered = index->clustered;
    info.is_key_index = key_index != nullptr && index.get() == key_index;
    input.indices.push_back(std::move(info));
  }
  return input;
}

uint32_t Database::HeapPageTuplesPerPage(TableDef* table) {
  uint32_t pages = table->table->num_data_pages();
  if (pages == 0) return 1;
  return static_cast<uint32_t>(table->table->tuple_count() / pages);
}

bool Database::HasCascadeLegs(const std::string& table) const {
  for (const ForeignKeyDef& fk : catalog_->foreign_keys()) {
    if (fk.parent_table == table && fk.action == FkAction::kCascade) {
      return true;
    }
  }
  return false;
}

Result<BulkDeletePlan> Database::ExplainBulkDelete(const BulkDeleteSpec& spec,
                                                   Strategy strategy) {
  return PlanTable(spec, strategy, HasCascadeLegs(spec.table));
}

Result<BulkDeletePlan> Database::PlanTable(const BulkDeleteSpec& spec,
                                           Strategy strategy,
                                           bool multi_table) {
  TableDef* t = GetTable(spec.table);
  if (t == nullptr) return Status::NotFound("no table " + spec.table);
  IndexDef* key_index = catalog_->GetIndex(spec.table, spec.key_column);
  uint64_t n_delete = spec.keys.size();
  if (spec.is_range()) {
    // Width estimate clamped to the table size; an inverted range dooms
    // nothing. The unsigned subtraction is overflow-safe for any lo <= hi.
    if (spec.range_empty()) {
      n_delete = 0;
    } else {
      uint64_t width = static_cast<uint64_t>(spec.range_hi) -
                       static_cast<uint64_t>(spec.range_lo) + 1;
      n_delete = width == 0 ? t->table->tuple_count()
                            : std::min(width, t->table->tuple_count());
    }
  }
  PlannerInput input =
      MakePlannerInput(t, key_index, n_delete, spec.keys_sorted);
  input.is_range = spec.is_range();
  input.range_lo = spec.range_lo;
  input.range_hi = spec.range_hi;
  CostModel cost(disk().disk_model(), options_.memory_budget_bytes);
  Planner planner(cost);
  if (multi_table) {
    // A statement with CASCADE legs is one vertical envelope over all of
    // its tables: every table is planned among the vertical methods.
    switch (strategy) {
      case Strategy::kOptimizer:
        return planner.ChooseVertical(input);
      case Strategy::kTraditional:
      case Strategy::kTraditionalSorted:
      case Strategy::kDropCreate:
        return Status::FailedPrecondition(
            std::string("a delete with CASCADE legs runs vertically; ") +
            StrategyName(strategy) + " deletes one table at a time");
      default:
        break;
    }
  }
  return planner.PlanFor(strategy, input);
}

Result<BulkDeleteReport> Database::BulkDelete(const BulkDeleteSpec& spec,
                                              Strategy strategy) {
  // One bulk-delete statement at a time. The §3.1 window is per-statement
  // global state (active_bd_id_, per-index off-line modes, the recovery
  // WAL's bd_id namespace), so overlapping statements from concurrent
  // network sessions must queue here — record-at-a-time DML and reads stay
  // fully concurrent through the lock manager.
  std::lock_guard<std::mutex> statement(bulk_delete_statement_mu_);
  std::set<std::string> cascade_path;
  return BulkDeleteWithCascadePath(spec, strategy, &cascade_path);
}

Result<std::vector<VerticalLeg>> Database::PlanCascadeLegs(
    const CascadePlan& fk_plan, Strategy strategy) {
  // One leg per (table, key column): a table reached through several FKs
  // on the same column deletes the union of their key lists in one leg; one
  // reached through two columns gets a leg per column.
  std::vector<VerticalLeg> legs;
  for (const CascadeChildDelete& child : fk_plan.children) {
    auto same = std::find_if(
        legs.begin(), legs.end(), [&](const VerticalLeg& leg) {
          return leg.spec.table == child.table &&
                 leg.spec.key_column == child.key_column;
        });
    if (same != legs.end()) {
      std::vector<int64_t> merged;
      std::set_union(same->spec.keys.begin(), same->spec.keys.end(),
                     child.keys.begin(), child.keys.end(),
                     std::back_inserter(merged));
      same->spec.keys = std::move(merged);
      continue;
    }
    VerticalLeg leg;
    leg.table = GetTable(child.table);
    if (leg.table == nullptr) return Status::NotFound("no table " + child.table);
    leg.key_index = catalog_->GetIndex(child.table, child.key_column);
    leg.spec.table = child.table;
    leg.spec.key_column = child.key_column;
    leg.spec.keys = child.keys;
    leg.spec.keys_sorted = true;
    legs.push_back(std::move(leg));
  }
  for (VerticalLeg& leg : legs) {
    BULKDEL_ASSIGN_OR_RETURN(leg.plan,
                             PlanTable(leg.spec, strategy, /*multi_table=*/true));
  }
  return legs;
}

Result<BulkDeleteReport> Database::ExecuteBulkDeletePlanned(
    ExecContext* ctx, const BulkDeleteSpec& spec, const CascadePlan& fk_plan,
    Strategy strategy) {
  TableDef* t = GetTable(spec.table);
  if (t == nullptr) return Status::NotFound("no table " + spec.table);
  IndexDef* key_index = catalog_->GetIndex(spec.table, spec.key_column);
  BULKDEL_ASSIGN_OR_RETURN(
      BulkDeletePlan plan,
      PlanTable(spec, strategy, HasCascadeLegs(spec.table)));
  Result<BulkDeleteReport> result = [&]() -> Result<BulkDeleteReport> {
    switch (plan.strategy) {
      case Strategy::kTraditional:
        if (key_index == nullptr) {
          return Status::FailedPrecondition(
              "traditional delete requires an index on " + spec.key_column);
        }
        return ExecuteTraditional(ctx, t, key_index, spec,
                                  /*sort_first=*/false);
      case Strategy::kTraditionalSorted:
        if (key_index == nullptr) {
          return Status::FailedPrecondition(
              "traditional delete requires an index on " + spec.key_column);
        }
        return ExecuteTraditional(ctx, t, key_index, spec,
                                  /*sort_first=*/true);
      case Strategy::kDropCreate:
        if (key_index == nullptr) {
          return Status::FailedPrecondition(
              "drop & create requires an index on " + spec.key_column);
        }
        return ExecuteDropCreate(ctx, t, key_index, spec);
      case Strategy::kVerticalSortMerge:
      case Strategy::kVerticalHash:
      case Strategy::kVerticalPartitionedHash: {
        // Phase B: the CASCADE legs and the statement's own table are legs
        // of one vertical statement (a plain delete is the one-leg case).
        BULKDEL_ASSIGN_OR_RETURN(std::vector<VerticalLeg> legs,
                                 PlanCascadeLegs(fk_plan, strategy));
        legs.push_back(VerticalLeg{t, key_index, spec, plan});
        return ExecuteVertical(ctx, std::move(legs));
      }
      case Strategy::kOptimizer:
        return Status::Internal("planner returned unresolved strategy");
    }
    return Status::InvalidArgument("unknown strategy");
  }();
  if (result.ok()) {
    result->backend =
        storage_backend() == StorageBackend::kFile ? "file" : "sim";
    if (result->plan_explain.empty()) result->plan_explain = plan.Explain();
  }
  return result;
}

Result<BulkDeleteReport> Database::BulkDeleteWithCascadePath(
    const BulkDeleteSpec& spec, Strategy strategy,
    std::set<std::string>* cascade_path) {
  TableDef* t = GetTable(spec.table);
  if (t == nullptr) return Status::NotFound("no table " + spec.table);

  // One execution context per statement: phase trace, per-phase I/O
  // attribution and the cancel flag. Created before FK planning so the
  // fk-plan phase lands in the statement's trace.
  ExecContext ctx(this);
  BufferPoolStats pool_before = pool_->stats();
  obs::MetricsSnapshot metrics_before = metrics_.Snapshot();

  // Phase A, read-only (§2.1 done right): derive the doomed value set once,
  // evaluate EVERY RESTRICT — including those reached through CASCADE
  // chains — and only then emit the cascade plan. A violation aborts here
  // with nothing to undo, regardless of FK catalog order.
  bool has_fks = false;
  for (const ForeignKeyDef& fk : catalog_->foreign_keys()) {
    if (fk.parent_table == spec.table) {
      has_fks = true;
      break;
    }
  }
  CascadePlan fk_plan;
  if (has_fks) {
    PhaseScope fk_scope(&ctx, "fk-plan");
    cascade_path->insert(spec.table);
    Status plan_status =
        PlanForeignKeysForBulkDelete(this, t, spec, cascade_path, &fk_plan);
    cascade_path->erase(spec.table);
    BULKDEL_RETURN_IF_ERROR(plan_status);
    fk_scope.set_items(fk_plan.TotalKeys());
  }

  Result<BulkDeleteReport> result =
      ExecuteBulkDeletePlanned(&ctx, spec, fk_plan, strategy);
  if (result.ok()) {
    result->pool = pool_->stats() - pool_before;
    result->metrics = metrics_.Snapshot() - metrics_before;
  }
  return result;
}

Status Database::FlushStructures(const std::vector<TableDef*>& tables) {
  std::lock_guard<std::mutex> ddl(catalog_mu_);
  std::vector<std::unique_lock<std::mutex>> latches;
  for (TableDef* t : catalog_->tables()) {
    latches.emplace_back(t->heap_latch);
    for (auto& index : t->indices) latches.emplace_back(index->cc->latch);
  }
  for (TableDef* t : tables) {
    BULKDEL_RETURN_IF_ERROR(t->table->FlushMeta());
    for (auto& index : t->indices) {
      BULKDEL_RETURN_IF_ERROR(index->tree->FlushMeta());
    }
  }
  return pool_->FlushAll();
}

Status Database::Checkpoint() {
  // Never inside a statement: its passes write pages and metas without the
  // latches FlushStructures takes.
  std::lock_guard<std::mutex> statement(bulk_delete_statement_mu_);
  std::unique_lock<std::mutex> ddl(catalog_mu_);
  BULKDEL_RETURN_IF_ERROR(catalog_->Persist());
  std::vector<TableDef*> tables = catalog_->tables();
  ddl.unlock();
  log_->Sync();
  BULKDEL_RETURN_IF_ERROR(FlushStructures(tables));
  log_->Sync();
  // Durability barrier: the flushed pages must be on the medium before the
  // checkpoint counts (fsync with the file backend; the sim backend charges
  // the same fault site so sweep coverage is identical).
  return disk_->Flush();
}

Status Database::VerifyIntegrity() {
  for (TableDef* t : catalog_->tables()) {
    // Collect live rows once.
    std::map<uint64_t, std::vector<char>> rows;
    BULKDEL_RETURN_IF_ERROR(t->table->Scan([&](const Rid& rid,
                                               const char* tuple) {
      rows.emplace(rid.Pack(),
                   std::vector<char>(tuple, tuple + t->schema->tuple_size()));
      return Status::OK();
    }));
    if (rows.size() != t->table->tuple_count()) {
      return Status::Corruption("table " + t->name + " count mismatch");
    }
    for (auto& index : t->indices) {
      BULKDEL_RETURN_IF_ERROR(index->tree->CheckInvariants());
      if (index->tree->entry_count() != rows.size()) {
        return Status::Corruption(
            "index " + index->name + " has " +
            std::to_string(index->tree->entry_count()) + " entries, table " +
            std::to_string(rows.size()) + " rows");
      }
      uint64_t checked = 0;
      Status s = index->tree->ScanAll([&](int64_t key, const Rid& rid,
                                          uint16_t) {
        auto it = rows.find(rid.Pack());
        if (it == rows.end()) {
          return Status::Corruption("index " + index->name +
                                    " points at dead RID " + rid.ToString());
        }
        int64_t actual = t->schema->GetInt(
            it->second.data(), static_cast<size_t>(index->column));
        if (actual != key) {
          return Status::Corruption("index " + index->name + " entry " +
                                    std::to_string(key) +
                                    " disagrees with row value " +
                                    std::to_string(actual));
        }
        ++checked;
        return Status::OK();
      });
      BULKDEL_RETURN_IF_ERROR(s);
      if (checked != rows.size()) {
        return Status::Corruption("index " + index->name + " scan count " +
                                  std::to_string(checked) + " != rows " +
                                  std::to_string(rows.size()));
      }
    }
  }
  return Status::OK();
}

Status Database::SimulateCrashAndRecover() {
  PageId catalog_page = catalog_->catalog_page();
  if (storage_backend() == StorageBackend::kFile) {
    // File backend: a crash IS a process death. Discard every in-memory
    // object — buffer pool frames, the decoded WAL, the DiskManager's free
    // list, the catalog cache — and reopen from the files alone, exactly
    // like a restarted process would. The un-fsynced WAL tail (if the
    // "crash" tore a flush) surfaces as a CRC-failing frame that recovery's
    // scan truncates.
    pool_->DiscardAllForCrashTest();
    catalog_->ResetInMemory();
    catalog_.reset();
    pool_.reset();
    log_.reset();
    disk_.reset();
    BULKDEL_RETURN_IF_ERROR(WireStorage(/*truncate=*/false));
    // Note: WireStorage re-attaches the fault injector, so an armed fault
    // survives the restart and tests can interrupt recovery itself
    // (recovery must be idempotent).
    BULKDEL_RETURN_IF_ERROR(catalog_->Load(catalog_page));
    return RecoverDatabase(this);
  }
  // Sim backend: the DiskManager and the WAL's durable image are the
  // durable medium; only the layers above them vanish.
  pool_->DiscardAllForCrashTest();
  log_->DropVolatileTail();
  catalog_->ResetInMemory();
  locks_ = std::make_unique<LockManager>();
  // Restart: reopen the catalog and roll interrupted work forward.
  BULKDEL_RETURN_IF_ERROR(catalog_->Load(catalog_page));
  return RecoverDatabase(this);
}

}  // namespace bulkdel
