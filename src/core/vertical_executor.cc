// The paper's contribution: vertical, set-oriented bulk deletion. The delete
// list is adapted (by sorting, hashing or partitioning) to the physical
// layout of each structure, which is then processed in one batch:
//
//   sort(D.A) → ⋉̸ I_A (by key, collects RIDs) → sort(RIDs) → ⋉̸ R
//   (projects (B,RID), (C,RID) feeds) → ⋉̸ I_B, ⋉̸ I_C (by key or RID).
//
// The executor also implements §3's machinery: an exclusive table lock until
// the table and all unique indices are processed (the commit point), off-line
// secondary indices with side-file or direct-propagation catch-up, and
// WAL + per-phase checkpoints so an interrupted statement is rolled forward.
//
// Execution is a phase DAG run by PhaseScheduler. The chain prefix
// (sort-keys → key index → table) is sequential by data dependency; the
// per-secondary-index phases only depend on the table pass (their feeds), so
// with DatabaseOptions::exec_threads > 1 they run concurrently on a worker
// pool. Node order is the canonical serial order, which the serial scheduler
// replays exactly:
//
//   sort-keys → key → table → {unique secondaries} → commit
//                                 → {non-unique secondaries} → finalize
//
// Concurrency rules inside a run:
//  * chain-prefix phases and commit/finalize run exclusively (every other
//    node transitively depends on them or they on it), so they may checkpoint
//    inline — BufferPool::FlushAll while nothing else mutates pages;
//  * concurrent secondary phases must NOT FlushAll (it would read page bytes
//    another worker is writing through its pin), so in parallel mode their
//    durable checkpoints are deferred to the finalize node. A crash before
//    finalize leaves those phases unmarked and recovery re-runs them
//    idempotently from the feeds materialized (and checkpointed) at the
//    table phase;
//  * shared run state touched by concurrent secondaries (report counters,
//    the done-phase set, deferred checkpoint labels) is guarded by mu_;
//    each secondary phase otherwise touches only its own feed and index.

#include <algorithm>
#include <cstring>
#include <map>
#include <unordered_set>
#include <utility>

#include "core/executors.h"
#include "core/phase_scheduler.h"
#include "exec/hash_delete.h"
#include "obs/metrics.h"
#include "obs/trace_recorder.h"
#include "exec/partitioned_delete.h"
#include "sort/external_sort.h"
#include "storage/spill.h"

namespace bulkdel {

namespace {

class VerticalRun {
 public:
  VerticalRun(ExecContext* ctx, TableDef* table, IndexDef* key_index,
              const BulkDeletePlan& plan)
      : ctx_(ctx),
        db_(ctx->db()),
        table_(table),
        key_index_(key_index),
        plan_(plan),
        logging_(db_->options().enable_recovery_log),
        parallel_(db_->options().exec_threads > 1),
        idx_latch_hist_(
            db_->metrics().histogram(obs::metric_names::kIdxLatchWaitNs)),
        leaf_reorg_hist_(db_->metrics().histogram(
            obs::metric_names::kLeafPagesReorganized)),
        ckpt_inline_counter_(
            db_->metrics().counter(obs::metric_names::kCkptInline)),
        ckpt_deferred_counter_(
            db_->metrics().counter(obs::metric_names::kCkptDeferred)),
        sidefile_depth_gauge_(
            db_->metrics().gauge(obs::metric_names::kSideFileDepth)),
        sidefile_drain_hist_(db_->metrics().histogram(
            obs::metric_names::kSideFileDrainBatch)),
        sidefile_catchup_hist_(db_->metrics().histogram(
            obs::metric_names::kSideFileCatchupNs)) {
    report_.strategy_used = plan_.strategy;
    report_.plan_explain = plan_.Explain();
    // Canonical secondary order comes from the plan (unique indices first).
    for (const PlanStep& step : plan_.steps) {
      if (step.is_table) continue;
      if (key_index_ != nullptr && step.structure == key_index_->name) {
        continue;
      }
      for (auto& index : table_->indices) {
        if (index->name == step.structure) {
          secondaries_.push_back(index.get());
          steps_by_name_[index->name] = &step;
        }
      }
    }
    // Pre-create every feed entry so concurrent secondary phases never
    // mutate the map itself — each phase touches only its own vector.
    for (IndexDef* index : secondaries_) {
      feeds_.emplace(index->name, std::vector<KeyRid>());
    }
  }

  Result<BulkDeleteReport> Run(const BulkDeleteSpec& spec) {
    keys_ = spec.keys;
    keys_sorted_ = spec.keys_sorted;
    is_range_ = spec.is_range();
    range_lo_ = spec.range_lo;
    range_hi_ = spec.range_hi;
    Stopwatch total;

    Status status = RunPhases();
    Status cleanup = ReleaseEverything(status.ok());
    BULKDEL_RETURN_IF_ERROR(status);
    BULKDEL_RETURN_IF_ERROR(cleanup);

    FinishReport(&total);
    return report_;
  }

  Result<BulkDeleteReport> Resume(const RecoveredBulkDelete& state) {
    resuming_ = true;
    bd_id_ = state.bd_id;
    done_ = state.phases_done;
    committed_ = state.committed;
    Stopwatch total;

    Status status = PrepareResume(state);
    if (status.ok()) status = RunPhases();
    Status cleanup = ReleaseEverything(status.ok());
    BULKDEL_RETURN_IF_ERROR(status);
    BULKDEL_RETURN_IF_ERROR(cleanup);

    FinishReport(&total);
    return report_;
  }

 private:
  std::string KeyPhaseLabel() const {
    return key_index_ != nullptr ? "index:" + key_index_->name
                                 : "table-no-index";
  }

  std::string TablePhaseLabel() const {
    return key_index_ != nullptr ? "table" : "table-no-index";
  }

  bool Done(const std::string& label) const {
    std::lock_guard<std::mutex> lock(mu_);
    return done_.count(label) > 0;
  }

  void FinishReport(Stopwatch* total) {
    report_.phases = ctx_->TakePhases();
    // Attributed total (root + per-phase accounts) rather than a
    // DiskManager::stats() delta: the disk total also counts concurrent
    // updaters' and other sessions' traffic, while the attributed sum is
    // exactly this statement's.
    report_.io = ctx_->AttributedTotal();
    report_.wall_micros = total->ElapsedMicros();
  }

  /// Assembles the phase DAG — node order is the canonical serial order —
  /// and hands it to the scheduler.
  Status RunPhases() {
    BULKDEL_RETURN_IF_ERROR(LockAndOffline());
    if (!resuming_) {
      BULKDEL_RETURN_IF_ERROR(LogBegin());
    }
    if (logging_) {
      // From here until the End record, concurrent updater DML is covered
      // by this statement's WAL (kUpdaterRow records, §3.1 durability).
      db_->SetUpdaterLoggingId(bd_id_);
    }

    std::vector<PhaseTask> tasks;
    auto add = [&tasks](std::string label, std::vector<int> deps,
                        std::function<Status()> body) {
      tasks.push_back(
          PhaseTask{std::move(label), std::move(deps), std::move(body)});
      return static_cast<int>(tasks.size()) - 1;
    };

    int sort_node = add("sort-keys", {}, [this] { return PhaseSortKeys(); });
    int table_node;
    if (key_index_ != nullptr) {
      int key_node = add(KeyPhaseLabel(), {sort_node},
                         [this] { return PhaseKeyIndex(); });
      table_node =
          add("table", {key_node}, [this] { return PhaseTable(); });
    } else {
      table_node = add(KeyPhaseLabel(), {sort_node},
                       [this] { return PhaseTableNoIndex(); });
    }

    // Unique indices must be consistent before the commit point (§3.1);
    // they depend only on their feeds, so they are mutually independent.
    std::vector<int> commit_deps{table_node};
    for (IndexDef* index : secondaries_) {
      if (!index->options.unique) continue;
      commit_deps.push_back(add("index:" + index->name, {table_node},
                                [this, index] {
                                  return PhaseSecondary(index);
                                }));
    }
    int commit_node =
        add("commit", std::move(commit_deps), [this] { return CommitPoint(); });

    // Non-unique indices catch up after the statement commits.
    std::vector<int> final_deps{commit_node};
    for (IndexDef* index : secondaries_) {
      if (index->options.unique) continue;
      final_deps.push_back(add("index:" + index->name, {commit_node},
                               [this, index] {
                                 return PhaseSecondary(index);
                               }));
    }
    add("finalize", std::move(final_deps), [this] { return FinishRun(); });

    return PhaseScheduler::Run(std::move(tasks), db_->options().exec_threads,
                               ctx_);
  }

  Status LockAndOffline() {
    db_->locks().LockExclusive(table_->name);
    exclusive_locked_ = true;
    IndexMode offline_mode =
        db_->options().concurrency == ConcurrencyProtocol::kSideFile
            ? IndexMode::kOfflineSideFile
            : IndexMode::kOfflineDirect;
    if (db_->options().concurrency != ConcurrencyProtocol::kNone) {
      for (auto& index : table_->indices) {
        if (offline_mode == IndexMode::kOfflineSideFile) {
          index->cc->side_file.Configure(&db_->disk(),
                                         db_->options().side_file_spill_ops);
        }
        index->cc->mode.store(offline_mode);
      }
    }
    return Status::OK();
  }

  Status LogBegin() {
    if (!logging_) return Status::OK();
    bd_id_ = db_->log().NextBulkDeleteId();
    LogRecord begin;
    begin.type = LogRecordType::kBegin;
    begin.bd_id = bd_id_;
    begin.label = table_->name;
    begin.aux = key_index_ != nullptr
                    ? table_->schema->column(
                              static_cast<size_t>(key_index_->column))
                          .name
                    : key_column_fallback_;
    if (is_range_) {
      // Range predicate: [lo, hi] rides in the Begin record itself (a
      // non-empty values field marks the statement as a range delete for
      // recovery). The empty input-keys list below keeps the resume path's
      // list accounting uniform.
      begin.values = {range_lo_, range_hi_};
    }
    db_->log().Append(std::move(begin));
    BULKDEL_RETURN_IF_ERROR(MaterializeList("input-keys", keys_));
    db_->log().Sync();
    return Status::OK();
  }

  template <typename T>
  Status MaterializeList(const std::string& label,
                         const std::vector<T>& items) {
    if (!logging_) return Status::OK();
    BULKDEL_ASSIGN_OR_RETURN(SpilledList<T> list,
                             SpillToDisk(&db_->disk(), items));
    LogRecord rec;
    rec.type = LogRecordType::kListMaterialized;
    rec.bd_id = bd_id_;
    rec.label = label;
    rec.pages = list.pages;
    rec.count = list.count;
    db_->log().Append(std::move(rec));
    {
      std::lock_guard<std::mutex> lock(mu_);
      spilled_pages_.push_back(std::move(list.pages));
    }
    return Status::OK();
  }

  /// Phase-end checkpoint: metas flushed, pool flushed (which first syncs the
  /// whole WAL tail under the pool's WAL rule), then the PhaseDone record
  /// made durable.
  ///
  /// `deferrable` marks phases that may run concurrently with other phases
  /// (the secondary-index nodes). FlushAll reads every dirty frame's bytes,
  /// racing any worker that is mutating a pinned page — so in parallel mode a
  /// deferrable checkpoint only records the label; the finalize node (which
  /// runs exclusively) flushes once and emits the pending PhaseDone records.
  Status CheckpointPhase(const std::string& label, bool deferrable = false) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_.insert(label);
      if (logging_ && deferrable && parallel_) {
        deferred_checkpoints_.push_back(label);
        ckpt_deferred_counter_->Add(1);
        if (recorder.enabled()) {
          recorder.RecordInstant(obs::TraceCategory::kCheckpoint, label,
                                 "deferred", 1);
        }
        return Status::OK();
      }
    }
    if (!logging_) return Status::OK();
    ckpt_inline_counter_->Add(1);
    if (recorder.enabled()) {
      recorder.RecordInstant(obs::TraceCategory::kCheckpoint, label,
                             "deferred", 0);
    }
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kExecCheckpoint, label));
    BULKDEL_RETURN_IF_ERROR(table_->table->FlushMeta());
    for (auto& index : table_->indices) {
      BULKDEL_RETURN_IF_ERROR(index->tree->FlushMeta());
    }
    BULKDEL_RETURN_IF_ERROR(db_->pool().FlushAll());
    // Durability barrier: the checkpoint's claim is that the phase's pages
    // are on the medium, so fsync the page file before recording PhaseDone
    // (charged no-op under the sim backend, same fault site either way).
    BULKDEL_RETURN_IF_ERROR(db_->disk().Flush());
    // Crash window: the phase's page writes are durable but its PhaseDone
    // record is not — recovery must re-run the phase idempotently.
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kExecCheckpointPostFlush, label));
    LogRecord rec;
    rec.type = LogRecordType::kPhaseDone;
    rec.bd_id = bd_id_;
    rec.label = label;
    db_->log().Append(std::move(rec));
    db_->log().Sync();
    return Status::OK();
  }

  Status PhaseSortKeys() {
    if (keys_sorted_) return Status::OK();
    PhaseScope scope(ctx_, "sort-keys");
    BULKDEL_RETURN_IF_ERROR(
        SortKeys(&db_->disk(), db_->options().memory_budget_bytes, &keys_));
    keys_sorted_ = true;
    scope.set_items(keys_.size());
    return Status::OK();
  }

  Status PhaseKeyIndex() {
    std::string label = KeyPhaseLabel();
    if (Done(label)) return Status::OK();
    PhaseScope scope(ctx_, label, "sort-keys");
    const PlanStep* step = FindStep(key_index_->name);
    BtreeBulkDeleteStats stats;
    std::function<void(int64_t, const Rid&)> wal;
    if (logging_) {
      wal = [this, &label](int64_t key, const Rid& rid) {
        LogRecord rec;
        rec.type = LogRecordType::kEntryDeleted;
        rec.bd_id = bd_id_;
        rec.label = label;
        rec.key = key;
        rec.rid = rid;
        db_->log().Append(std::move(rec));
      };
    }
    if (is_range_) {
      // Leaf-run pass: fully-covered leaves are logged whole (one
      // kRangeLeafRun record carrying every (key, RID) pair) and spliced out
      // of the chain without ever being written; only boundary entries go
      // through the per-entry path with kEntryDeleted records.
      auto on_leaf_drop = [this, &label](
                              PageId leaf,
                              const std::vector<KeyRid>& run) -> Status {
        BULKDEL_RETURN_IF_ERROR(
            db_->CheckFault(fault_sites::kBtreeRangeLeafRun, label));
        if (logging_) {
          LogRecord rec;
          rec.type = LogRecordType::kRangeLeafRun;
          rec.bd_id = bd_id_;
          rec.label = label;
          rec.pages = {leaf};
          rec.count = run.size();
          rec.values.reserve(run.size() * 2);
          for (const KeyRid& e : run) {
            rec.values.push_back(e.key);
            rec.values.push_back(static_cast<int64_t>(e.rid.Pack()));
          }
          db_->log().Append(std::move(rec));
        }
        return Status::OK();
      };
      BULKDEL_RETURN_IF_ERROR(key_index_->tree->BulkDeleteRange(
          range_lo_, range_hi_, db_->options().reorg, &rids_, &stats,
          on_leaf_drop, wal, &dropped_leaf_pages_));
    } else if (step != nullptr && step->method == DeleteMethod::kClassicHash) {
      U64HashSet set(keys_.size());
      for (int64_t k : keys_) set.Insert(static_cast<uint64_t>(k));
      BULKDEL_RETURN_IF_ERROR(key_index_->tree->BulkDeleteByPredicate(
          [&](int64_t key, const Rid&) {
            return set.Contains(static_cast<uint64_t>(key));
          },
          db_->options().reorg, &stats, std::nullopt, std::nullopt,
          [&](int64_t key, const Rid& rid) {
            rids_.push_back(rid);
            if (wal) wal(key, rid);
          }));
    } else {
      BULKDEL_RETURN_IF_ERROR(key_index_->tree->BulkDeleteSortedKeys(
          keys_, db_->options().reorg, &rids_, &stats, wal));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      report_.index_entries_deleted += stats.entries_deleted;
    }
    leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
    scope.set_items(stats.entries_deleted);
    BULKDEL_RETURN_IF_ERROR(MaterializeList("rids", rids_));
    // The key index locates the records via key order, so the RID list is in
    // key order — physical order only if the index is clustered.
    rids_sorted_ = key_index_->clustered;
    return CheckpointPhase(label);
  }

  Status PhaseTable() {
    const std::string label = "table";
    if (Done(label)) return Status::OK();
    PhaseScope scope(ctx_, label, KeyPhaseLabel());
    if (!rids_sorted_) {
      BULKDEL_RETURN_IF_ERROR(
          SortRids(&db_->disk(), db_->options().memory_budget_bytes, &rids_));
      rids_sorted_ = true;
    }
    if (is_range_) {
      // A resumed range run seeds RIDs from kRangeLeafRun/kEntryDeleted
      // records AND rediscovers the survivors among them in the re-run key
      // pass; a duplicate RID would double-count a page's doomed tuples in
      // the extent-drop coverage proof, so collapse them here.
      rids_.erase(std::unique(rids_.begin(), rids_.end(),
                              [](const Rid& a, const Rid& b) {
                                return a.Pack() == b.Pack();
                              }),
                  rids_.end());
      // Extent-drop pass: fully-covered heap pages are spliced out of the
      // chain without being read (no feeds to project — range secondaries
      // probe by RID). Each drop is WAL-logged before the splice; the pages
      // themselves are freed at finalize, after the End record is durable.
      uint64_t deleted = 0;
      auto on_drop = [this](PageId page, uint64_t tuples) -> Status {
        BULKDEL_RETURN_IF_ERROR(db_->CheckFault(fault_sites::kHeapExtentDrop,
                                                std::to_string(page)));
        if (logging_) {
          LogRecord rec;
          rec.type = LogRecordType::kExtentDrop;
          rec.bd_id = bd_id_;
          rec.pages = {page};
          rec.count = tuples;
          db_->log().Append(std::move(rec));
        }
        return Status::OK();
      };
      BULKDEL_RETURN_IF_ERROR(table_->table->BulkDeleteSortedRidsExtentDrop(
          rids_, recovered_extent_pages_, on_drop, nullptr, &deleted,
          &extent_pages_));
      report_.rows_deleted += deleted;
      scope.set_items(deleted);
      return CheckpointPhase(label);
    }
    std::vector<std::vector<KeyRid>*> feeds = SecondaryFeeds();
    uint64_t deleted = 0;
    BULKDEL_RETURN_IF_ERROR(table_->table->BulkDeleteSortedRids(
        rids_,
        [&](const Rid& rid, const char* tuple) {
          OnRowDeleted(feeds, rid, tuple);
        },
        &deleted, nullptr));
    report_.rows_deleted += deleted;
    scope.set_items(deleted);
    for (IndexDef* index : secondaries_) {
      BULKDEL_RETURN_IF_ERROR(
          MaterializeList("feed:" + index->name, feeds_[index->name]));
    }
    return CheckpointPhase(label);
  }

  /// Every secondary's feed vector in `secondaries_` order, looked up once
  /// per table pass instead of once per deleted row and index.
  std::vector<std::vector<KeyRid>*> SecondaryFeeds() {
    std::vector<std::vector<KeyRid>*> feeds;
    feeds.reserve(secondaries_.size());
    for (IndexDef* index : secondaries_) {
      feeds.push_back(&feeds_.at(index->name));
    }
    return feeds;
  }

  /// Table-pass bookkeeping for one deleted row: projects its secondary keys
  /// into `feeds` and, when logging, appends its kRowDeleted record carrying
  /// the keys just projected.
  void OnRowDeleted(const std::vector<std::vector<KeyRid>*>& feeds,
                    const Rid& rid, const char* tuple) {
    const Schema& schema = *table_->schema;
    for (size_t i = 0; i < secondaries_.size(); ++i) {
      feeds[i]->emplace_back(
          schema.GetInt(tuple, static_cast<size_t>(secondaries_[i]->column)),
          rid);
    }
    if (!logging_) return;
    LogRecord rec;
    rec.type = LogRecordType::kRowDeleted;
    rec.bd_id = bd_id_;
    rec.rid = rid;
    rec.values.reserve(feeds.size());
    for (const std::vector<KeyRid>* feed : feeds) {
      rec.values.push_back(feed->back().key);
    }
    db_->log().Append(std::move(rec));
  }

  /// Fallback when no index exists on the delete-list column: one full table
  /// scan probing a main-memory hash of the keys (there is no access path, so
  /// the scan is unavoidable; the plan stays vertical for the indices).
  Status PhaseTableNoIndex() {
    const std::string label = "table-no-index";
    if (Done(label)) return Status::OK();
    PhaseScope scope(ctx_, label, "sort-keys");
    int key_column = table_->schema->FindColumn(key_column_fallback_);
    if (key_column < 0) {
      return Status::NotFound("no column " + key_column_fallback_);
    }
    U64HashSet set(keys_.size());
    if (!is_range_) {
      for (int64_t k : keys_) set.Insert(static_cast<uint64_t>(k));
    }
    const Schema& schema = *table_->schema;
    std::vector<std::vector<KeyRid>*> feeds = SecondaryFeeds();
    uint64_t deleted = 0;
    BULKDEL_RETURN_IF_ERROR(table_->table->ScanDeleteIf(
        [&](const Rid&, const char* tuple) {
          int64_t k = schema.GetInt(tuple, static_cast<size_t>(key_column));
          // Range with no access path: one predicate scan — the predicate is
          // evaluated here, inside the admission window, not at parse time.
          if (is_range_) return k >= range_lo_ && k <= range_hi_;
          return set.Contains(static_cast<uint64_t>(k));
        },
        [&](const Rid& rid, const char* tuple) {
          OnRowDeleted(feeds, rid, tuple);
          // This path never fills rids_ (no access-path pass produced one);
          // the scrub pass needs the dead slots, so collect them here.
          if (db_->options().scrub_deleted_pages) {
            scrub_rids_.push_back(rid);
          }
        },
        &deleted));
    report_.rows_deleted += deleted;
    scope.set_items(deleted);
    for (IndexDef* index : secondaries_) {
      BULKDEL_RETURN_IF_ERROR(
          MaterializeList("feed:" + index->name, feeds_[index->name]));
    }
    return CheckpointPhase(label);
  }

  /// Runs on a scheduler worker when exec_threads > 1; touches only this
  /// index's feed and structures plus mu_-guarded run state.
  Status PhaseSecondary(IndexDef* index) {
    std::string label = "index:" + index->name;
    if (Done(label)) {
      BULKDEL_RETURN_IF_ERROR(BringOnline(index));
      return Status::OK();
    }
    PhaseScope scope(ctx_, label, TablePhaseLabel());
    const PlanStep* step = FindStep(index->name);
    DeleteMethod method = step != nullptr ? step->method : DeleteMethod::kMerge;
    std::vector<KeyRid>& feed = feeds_.at(index->name);
    BtreeBulkDeleteStats stats;

    if (is_range_ && key_index_ != nullptr) {
      // Range plans skip feed projection: the RID list from the leaf-run
      // pass probes each secondary directly (rids_ is immutable once the
      // table phase is done, so concurrent secondary phases share it).
      std::unique_lock<std::mutex> latch = LatchIndex(index);
      BULKDEL_RETURN_IF_ERROR(HashDeleteIndexByRids(
          index->tree.get(), rids_, db_->options().reorg, &stats));
      latch.unlock();
      {
        std::lock_guard<std::mutex> lock(mu_);
        report_.index_entries_deleted += stats.entries_deleted;
      }
      leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
      scope.set_items(stats.entries_deleted);
      BULKDEL_RETURN_IF_ERROR(BringOnline(index));
      return CheckpointPhase(label, /*deferrable=*/true);
    }

    switch (method) {
      case DeleteMethod::kMerge: {
        bool pre_sorted = step != nullptr && step->input_sorted;
        if (!pre_sorted) {
          BULKDEL_RETURN_IF_ERROR(SortKeyRids(
              &db_->disk(), db_->options().memory_budget_bytes, &feed));
        }
        // Chunked so concurrent updaters can interleave between latch
        // windows while this off-line index is processed.
        size_t chunk = db_->options().bulk_chunk_entries;
        if (chunk == 0) chunk = feed.size() + 1;
        for (size_t i = 0; i < feed.size() || i == 0; i += chunk) {
          size_t hi = std::min(i + chunk, feed.size());
          std::vector<KeyRid> slice(feed.begin() + i, feed.begin() + hi);
          bool last = hi >= feed.size();
          BtreeBulkDeleteStats chunk_stats;
          {
            std::unique_lock<std::mutex> latch = LatchIndex(index);
            BULKDEL_RETURN_IF_ERROR(index->tree->BulkDeleteSortedEntries(
                slice, last ? db_->options().reorg : ReorgMode::kFreeAtEmpty,
                &chunk_stats));
          }
          stats += chunk_stats;
          if (last) break;
        }
        break;
      }
      case DeleteMethod::kClassicHash: {
        std::vector<Rid> rids;
        rids.reserve(feed.size());
        for (const KeyRid& e : feed) rids.push_back(e.rid);
        std::unique_lock<std::mutex> latch = LatchIndex(index);
        BULKDEL_RETURN_IF_ERROR(HashDeleteIndexByRids(
            index->tree.get(), rids, db_->options().reorg, &stats));
        break;
      }
      case DeleteMethod::kPartitionedHash: {
        PartitionedDeleteStats pstats;
        std::unique_lock<std::mutex> latch = LatchIndex(index);
        BULKDEL_RETURN_IF_ERROR(PartitionedHashDeleteIndex(
            index->tree.get(), &db_->disk(),
            db_->options().memory_budget_bytes, feed, db_->options().reorg,
            &pstats));
        stats = pstats.btree;
        break;
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      report_.index_entries_deleted += stats.entries_deleted;
    }
    leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
    scope.set_items(stats.entries_deleted);
    BULKDEL_RETURN_IF_ERROR(BringOnline(index));
    return CheckpointPhase(label, /*deferrable=*/true);
  }

  /// Acquires an off-line index's latch, observing the wait under
  /// idx.latch_wait_ns plus a latch-category span for long waits when
  /// tracing is enabled. Clock-free when tracing is off.
  std::unique_lock<std::mutex> LatchIndex(IndexDef* index) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (!recorder.enabled()) {
      return std::unique_lock<std::mutex>(index->cc->latch);
    }
    int64_t t0 = MonotonicNanos();
    std::unique_lock<std::mutex> latch(index->cc->latch);
    int64_t waited = MonotonicNanos() - t0;
    idx_latch_hist_->Observe(waited);
    if (waited > 1000) {
      recorder.RecordComplete(obs::TraceCategory::kLatch, "idx.latch", t0,
                              t0 + waited, "index_column",
                              index->column);
    }
    return latch;
  }

  /// Side-file catch-up / undeletable-flag cleanup, then flip on-line.
  /// Restartable: each catch-up batch is applied (idempotently) *before* it
  /// is consumed from the side-file, so an error returns with the index
  /// still off-line and the un-applied tail still queued — calling
  /// BringOnline again simply resumes the drain.
  Status BringOnline(IndexDef* index) {
    IndexMode mode = index->cc->mode.load();
    if (mode == IndexMode::kOnline) return Status::OK();
    if (mode == IndexMode::kOfflineSideFile) {
      SideFile& side_file = index->cc->side_file;
      // Drain in batches while updaters may still be appending; once nearly
      // empty — or after a bounded number of rounds, if appenders outpace
      // the drain — quiesce appenders and drain the tail (§3.1.1).
      for (int rounds = 0; side_file.size() > 64 && rounds < 10000; ++rounds) {
        BULKDEL_RETURN_IF_ERROR(DrainAndApply(index, 256));
      }
      SideFile::QuiesceGuard quiesce(&side_file);
      while (side_file.size() > 0) {
        BULKDEL_RETURN_IF_ERROR(
            DrainAndApply(index, std::numeric_limits<size_t>::max()));
      }
      // Crash window: the side-file is fully applied but nothing here is
      // durable yet — recovery re-applies the logged updater ops
      // idempotently over the rebuilt index.
      BULKDEL_RETURN_IF_ERROR(
          db_->CheckFault(fault_sites::kTxnOnlineFlip, index->name));
      index->cc->mode.store(IndexMode::kOnline);
      return Status::OK();
    }
    // Direct propagation (§3.1.2): clear the undeletable markers and only
    // then flip on-line, both under the index latch that ApplyIndexInsert
    // holds while deciding an entry's flags. Flipping first (the old order)
    // let an updater that had already read the off-line mode insert a
    // *marked* entry after the cleanup pass — a stale marker that survived
    // into normal operation; recovery additionally sweeps markers in case
    // of a crash between the cleanup and the statement's End record.
    std::lock_guard<std::mutex> latch(index->cc->latch);
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kTxnOnlineFlip, index->name));
    // Skip the full-leaf clearing scan when no updater marked anything —
    // a quiet run must cost the same I/O as the exclusive protocol. Not
    // safe on a resumed run: the pre-crash mark count is volatile state,
    // so resume always scans (as does RecoverDatabase's marker sweep).
    if (resuming_ ||
        index->cc->undeletable_marks.load(std::memory_order_relaxed) > 0) {
      BULKDEL_RETURN_IF_ERROR(index->tree->ClearUndeletableFlags());
      index->cc->undeletable_marks.store(0, std::memory_order_relaxed);
    }
    index->cc->mode.store(IndexMode::kOnline);
    return Status::OK();
  }

  /// One restartable catch-up batch: peek up to `max_ops`, apply them, and
  /// only then consume them (a failure between the two re-applies the batch
  /// on the next call — every op is idempotent, so that is safe).
  Status DrainAndApply(IndexDef* index, size_t max_ops) {
    SideFile& side_file = index->cc->side_file;
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kTxnCatchupBatch, index->name));
    BULKDEL_ASSIGN_OR_RETURN(std::vector<SideFileOp> batch,
                             side_file.PeekBatch(max_ops));
    if (batch.empty()) return Status::OK();
    int64_t t0 = MonotonicNanos();
    BULKDEL_RETURN_IF_ERROR(ApplySideFileBatch(index, batch));
    BULKDEL_RETURN_IF_ERROR(side_file.ConsumeFront(batch.size()));
    sidefile_drain_hist_->Observe(static_cast<int64_t>(batch.size()));
    sidefile_catchup_hist_->Observe(MonotonicNanos() - t0);
    sidefile_depth_gauge_->Set(static_cast<int64_t>(side_file.size()));
    if (logging_) {
      // Diagnostic only (not synced): kUpdaterRow records are the replay
      // source; this just narrates catch-up progress for log archaeology.
      LogRecord rec;
      rec.type = LogRecordType::kSideFileDrain;
      rec.bd_id = bd_id_;
      rec.label = index->name;
      rec.count = batch.size();
      db_->log().Append(std::move(rec));
    }
    return Status::OK();
  }

  /// Applies a drained batch the set-oriented way (the point of §3.1.1's
  /// catch-up): collapse it last-op-wins per (key, RID) composite, then run
  /// the deletions through the same sorted-merge leaf pass the bulk delete
  /// itself uses, and the insertions through the sorted bulk insert —
  /// rather than replaying record-at-a-time in arrival order.
  Status ApplySideFileBatch(IndexDef* index,
                            const std::vector<SideFileOp>& batch) {
    if (batch.empty()) return Status::OK();
    std::map<std::pair<int64_t, uint64_t>, SideFileOp> collapsed;
    for (const SideFileOp& op : batch) {
      collapsed[{op.key, op.rid.Pack()}] = op;
    }
    std::vector<KeyRid> deletes;
    std::vector<KeyRid> inserts;
    for (const auto& [composite, op] : collapsed) {
      (op.is_insert ? inserts : deletes).emplace_back(op.key, op.rid);
    }
    std::lock_guard<std::mutex> latch(index->cc->latch);
    if (!deletes.empty()) {
      // Tolerates entries that are already gone — idempotent under
      // re-application after a failed ConsumeFront.
      BULKDEL_RETURN_IF_ERROR(index->tree->BulkDeleteSortedEntries(
          deletes, ReorgMode::kFreeAtEmpty, nullptr));
    }
    if (!inserts.empty()) {
      Status bulk = index->tree->BulkInsertSorted(inserts);
      if (bulk.code() == StatusCode::kAlreadyExists) {
        // Re-application after a failed ConsumeFront: some entries landed
        // already. BulkInsertSorted left the tree unchanged; fall back to
        // per-entry inserts tolerating the duplicates.
        for (const KeyRid& e : inserts) {
          Status s = index->tree->Insert(e.key, e.rid);
          if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        }
      } else {
        BULKDEL_RETURN_IF_ERROR(bulk);
      }
    }
    return Status::OK();
  }

  /// Resume only: rolls the recovered §3.1 updater DML forward. Ops at
  /// different RIDs are independent, but a slot freed by a logged delete may
  /// have been reused by a later logged insert at the same RID — and any
  /// prefix of that history may already be durable (evictions and
  /// checkpoints flush heap and index pages independently). So the ops are
  /// grouped by RID and each group is reconciled as a unit to its net final
  /// state instead of being re-executed record-at-a-time.
  Status ReplayUpdaterOps() {
    if (updater_replay_.empty()) return Status::OK();
    std::vector<std::vector<const RecoveredBulkDelete::UpdaterOp*>> groups;
    std::map<uint64_t, size_t> group_of;
    for (const RecoveredBulkDelete::UpdaterOp& op : updater_replay_) {
      auto [it, is_new] = group_of.try_emplace(op.rid.Pack(), groups.size());
      if (is_new) groups.emplace_back();
      groups[it->second].push_back(&op);
    }
    for (const auto& group : groups) {
      BULKDEL_RETURN_IF_ERROR(ReplayRidGroup(group));
    }
    updater_replay_.clear();
    return Status::OK();
  }

  /// Materializes a kUpdaterRow record's int values into tuple bytes.
  Status MaterializeUpdaterRow(const std::vector<int64_t>& values,
                               std::vector<char>* tuple) {
    tuple->assign(table_->schema->tuple_size(), 0);
    size_t vi = 0;
    for (size_t c = 0; c < table_->schema->num_columns(); ++c) {
      if (table_->schema->column(c).type != ColumnType::kInt64) continue;
      if (vi >= values.size()) {
        return Status::Corruption("updater record too short for " +
                                  table_->name);
      }
      table_->schema->SetInt(tuple->data(), c, values[vi++]);
    }
    return Status::OK();
  }

  /// Reconciles one RID's logged op history (alternating inserts and
  /// deletes of that slot, in statement order) against the recovered state:
  /// the heap slot is driven to the state after the group's last op, and
  /// each key ever written at this RID is asserted present or absent in
  /// every index per the last op that named it. All steps tolerate being
  /// already applied, so the durable state may sit anywhere in the group's
  /// history — including past ops whose slot was later reused, the case a
  /// record-at-a-time replay would mistake for corruption.
  Status ReplayRidGroup(
      const std::vector<const RecoveredBulkDelete::UpdaterOp*>& ops) {
    const Rid rid = ops.front()->rid;
    const size_t tuple_size = table_->schema->tuple_size();
    std::vector<std::vector<char>> rows(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      BULKDEL_RETURN_IF_ERROR(MaterializeUpdaterRow(ops[i]->values, &rows[i]));
    }

    std::vector<char> current(tuple_size);
    Status get = table_->table->Get(rid, current.data());
    if (!get.ok() && !get.IsNotFound()) return get;
    const bool occupied = get.ok();
    if (occupied) {
      // The slot must hold the row of one of this group's inserts; anything
      // else means the WAL and the heap disagree about who owns the slot.
      bool known = false;
      for (size_t i = 0; i < ops.size() && !known; ++i) {
        known = ops[i]->is_insert &&
                std::memcmp(current.data(), rows[i].data(), tuple_size) == 0;
      }
      if (!known) {
        return Status::Corruption("updater replay: slot " + rid.ToString() +
                                  " holds a row no logged op wrote");
      }
    }
    if (ops.back()->is_insert) {
      if (!occupied) {
        BULKDEL_RETURN_IF_ERROR(table_->table->InsertAt(rid, rows.back().data()));
      } else if (std::memcmp(current.data(), rows.back().data(), tuple_size) !=
                 0) {
        // Durable state stopped at an earlier insert the log later deleted.
        BULKDEL_RETURN_IF_ERROR(table_->table->Delete(rid));
        BULKDEL_RETURN_IF_ERROR(table_->table->InsertAt(rid, rows.back().data()));
      }
    } else if (occupied) {
      BULKDEL_RETURN_IF_ERROR(table_->table->Delete(rid));
    }

    for (auto& index : table_->indices) {
      // Last op naming a key decides whether (key, rid) survives.
      std::vector<std::pair<int64_t, bool>> final_state;
      for (size_t i = 0; i < ops.size(); ++i) {
        int64_t key = table_->schema->GetInt(
            rows[i].data(), static_cast<size_t>(index->column));
        auto found = std::find_if(
            final_state.begin(), final_state.end(),
            [key](const std::pair<int64_t, bool>& e) { return e.first == key; });
        if (found != final_state.end()) {
          found->second = ops[i]->is_insert;
        } else {
          final_state.emplace_back(key, ops[i]->is_insert);
        }
      }
      std::lock_guard<std::mutex> latch(index->cc->latch);
      for (const auto& [key, present] : final_state) {
        if (present) {
          // Non-unique trees accept duplicate (key, RID) pairs, so probe
          // first to keep the replay idempotent.
          BULKDEL_ASSIGN_OR_RETURN(std::vector<Rid> hits,
                                   index->tree->Search(key));
          if (std::find(hits.begin(), hits.end(), rid) != hits.end()) continue;
          Status s = index->tree->Insert(key, rid);
          if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
        } else {
          Status s = index->tree->Delete(key, rid);
          if (!s.ok() && !s.IsNotFound()) return s;
        }
      }
    }
    return Status::OK();
  }

  /// Table + unique indices done: the statement commits; concurrent readers
  /// and updaters may proceed while non-unique indices catch up (§3.1).
  /// Runs exclusively: every unique-secondary node precedes it in the DAG.
  Status CommitPoint() {
    if (committed_) {
      if (exclusive_locked_) {
        db_->locks().UnlockExclusive(table_->name);
        exclusive_locked_ = false;
      }
      return Status::OK();
    }
    BULKDEL_RETURN_IF_ERROR(db_->CheckFault(fault_sites::kExecCommit));
    if (logging_) {
      LogRecord rec;
      rec.type = LogRecordType::kCommit;
      rec.bd_id = bd_id_;
      db_->log().Append(std::move(rec));
      db_->log().Sync();
    }
    committed_ = true;
    // Unique indices were fully processed above; flip them on-line.
    if (key_index_ != nullptr) {
      BULKDEL_RETURN_IF_ERROR(BringOnline(key_index_));
    }
    for (IndexDef* index : secondaries_) {
      if (index->options.unique) {
        BULKDEL_RETURN_IF_ERROR(BringOnline(index));
      }
    }
    if (exclusive_locked_) {
      db_->locks().UnlockExclusive(table_->name);
      exclusive_locked_ = false;
    }
    return Status::OK();
  }

  /// Terminal DAG node; runs exclusively (depends on everything else), so
  /// flushing is safe and any deferred secondary checkpoints become durable
  /// here, just before the End record.
  Status FinishRun() {
    PhaseScope scope(ctx_, "finalize", TablePhaseLabel());
    // Resume only: replay the §3.1 updater DML recovered from kUpdaterRow
    // records. Runs here — after every secondary phase, so each index is
    // back on-line — and before the flush below makes the effects durable.
    // Idempotent (RID-directed), so a crash mid-replay just replays again.
    BULKDEL_RETURN_IF_ERROR(ReplayUpdaterOps());
    // Crash window: every phase body has completed, but in parallel mode the
    // secondary checkpoints are still deferred (volatile) — recovery must
    // re-run those phases idempotently from the checkpointed feeds.
    BULKDEL_RETURN_IF_ERROR(db_->CheckFault(fault_sites::kExecFinalize));
    BULKDEL_RETURN_IF_ERROR(table_->table->FlushMeta());
    for (auto& index : table_->indices) {
      BULKDEL_RETURN_IF_ERROR(index->tree->FlushMeta());
    }
    BULKDEL_RETURN_IF_ERROR(db_->pool().FlushAll());
    // Finalize barrier: everything the statement wrote is fsynced before the
    // End record can truncate the WAL that would otherwise re-create it.
    BULKDEL_RETURN_IF_ERROR(db_->disk().Flush());
    if (logging_) {
      for (const std::string& label : deferred_checkpoints_) {
        LogRecord rec;
        rec.type = LogRecordType::kPhaseDone;
        rec.bd_id = bd_id_;
        rec.label = label;
        db_->log().Append(std::move(rec));
      }
      deferred_checkpoints_.clear();
      // Crash window: deferred PhaseDone records are appended (volatile) but
      // the End record is not yet durable.
      BULKDEL_RETURN_IF_ERROR(
          db_->CheckFault(fault_sites::kExecFinalizePreEnd));
      // New updater DML stops being WAL-covered here: the flush above made
      // every op logged so far durable in the structures themselves, and
      // the End record is about to truncate their records.
      db_->SetUpdaterLoggingId(0);
      LogRecord rec;
      rec.type = LogRecordType::kEnd;
      rec.bd_id = bd_id_;
      db_->log().Append(std::move(rec));
      db_->log().Sync();
      db_->log().TruncateCompleted();
    }
    // Pages freed only after the End record, in this order (the allocator's
    // reuse order follows it):
    //  * spilled delete-list pages (with logging);
    //  * side-file spill pages whose ops were staged back during catch-up,
    //    and the orphaned ones a resumed run inherited: before the End record
    //    truncated the kSideFileSpill records, freeing them could have let a
    //    reallocation reuse an id that a post-crash recovery would free
    //    again — on a live page;
    //  * extent-dropped heap pages: freeing them earlier would let the
    //    allocator alias them while a post-crash recovery could still
    //    re-process their kExtentDrop records;
    //  * the index nodes the leaf-run pass detached.
    // A resumed run can re-drop an extent or a leaf whose detach write was
    // lost, so its recovered lists may overlap this run's: each page is freed
    // once. Freeing through the pool drops a cached frame for an emptied
    // node, which must not be written back over a reallocated page; the
    // spill pages never have one.
    std::vector<PageId> free_after_end;
    std::unordered_set<PageId> listed;
    auto free_after = [&](std::vector<PageId> pages) {
      for (PageId p : pages) {
        if (listed.insert(p).second) free_after_end.push_back(p);
      }
    };
    if (logging_) {
      for (std::vector<PageId>& pages : spilled_pages_) {
        free_after(std::move(pages));
      }
      spilled_pages_.clear();
    }
    for (auto& index : table_->indices) {
      free_after(index->cc->side_file.TakeReclaimablePages());
    }
    free_after(std::exchange(recovered_sidefile_pages_, {}));
    free_after(std::exchange(extent_pages_, {}));
    free_after(std::exchange(recovered_extent_pages_, {}));
    free_after(std::exchange(dropped_leaf_pages_, {}));
    free_after(std::exchange(recovered_leaf_pages_, {}));
    for (PageId p : free_after_end) {
      BULKDEL_RETURN_IF_ERROR(db_->pool().DeletePage(p));
      NoteFreedPage(p);
    }
    if (db_->options().scrub_deleted_pages) {
      BULKDEL_RETURN_IF_ERROR(ScrubAfterEnd());
    }
    return Status::OK();
  }

  /// Verified-erasure pass (DatabaseOptions::scrub_deleted_pages), run as
  /// the tail of finalize when every freed page is reclaimable and — with
  /// logging — the End record is durable: dead tuple bytes carry no
  /// recovery obligation anymore, so zeroing them cannot lose committed
  /// work, and a crash mid-scrub merely leaves some dead bytes behind for
  /// the next scrubbed statement (erasure is guaranteed on clean statement
  /// completion). Two legs: memset the dead slots of surviving heap pages
  /// (through the pool, flushed below), and overwrite every page this
  /// statement freed — heap extents, dropped B-tree leaves, spilled
  /// delete-list / side-file scratch pages — with zeros directly on disk
  /// (they are out of the pool, so no stale frame can resurrect the bytes).
  Status ScrubAfterEnd() {
    std::unordered_set<PageId> freed(scrub_freed_pages_.begin(),
                                     scrub_freed_pages_.end());
    std::vector<Rid> dead = rids_;
    dead.insert(dead.end(), scrub_rids_.begin(), scrub_rids_.end());
    std::sort(dead.begin(), dead.end());
    dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
    if (!dead.empty()) {
      BULKDEL_RETURN_IF_ERROR(table_->table->ScrubDeadSlots(dead, freed));
      BULKDEL_RETURN_IF_ERROR(db_->pool().FlushAll());
    }
    if (!freed.empty()) {
      std::vector<char> zeros(kPageSize, 0);
      for (PageId p : scrub_freed_pages_) {
        BULKDEL_RETURN_IF_ERROR(db_->disk().WritePage(p, zeros.data()));
      }
    }
    scrub_freed_pages_.clear();
    if (dead.empty() && freed.empty()) return Status::OK();
    return db_->disk().Flush();
  }

  void NoteFreedPage(PageId p) {
    if (db_->options().scrub_deleted_pages) scrub_freed_pages_.push_back(p);
  }

  /// Always runs, success or failure: release the lock, restore index modes
  /// (a crashed run leaves everything off-line on purpose — recovery fixes
  /// it — but an error with no logging must not wedge the database).
  Status ReleaseEverything(bool success) {
    if (logging_) db_->SetUpdaterLoggingId(0);
    if (exclusive_locked_) {
      db_->locks().UnlockExclusive(table_->name);
      exclusive_locked_ = false;
    }
    if (!success && !logging_) {
      // Error without recovery logging: nothing will roll this forward, so
      // do not wedge the database off-line. Apply whatever side-file tail
      // exists best-effort, then flip on-line (the statement itself already
      // failed; updater ops are at least not silently dropped).
      for (auto& index : table_->indices) {
        if (index->cc->mode.load() == IndexMode::kOfflineSideFile) {
          SideFile::QuiesceGuard quiesce(&index->cc->side_file);
          while (index->cc->side_file.size() > 0) {
            Status s = DrainAndApply(index.get(),
                                     std::numeric_limits<size_t>::max());
            if (!s.ok()) break;
          }
          index->cc->side_file.Reset();
        }
        index->cc->mode.store(IndexMode::kOnline);
      }
    }
    return Status::OK();
  }

  Status PrepareResume(const RecoveredBulkDelete& state) {
    key_column_fallback_ = state.key_column;
    updater_replay_ = state.updater_ops;
    recovered_sidefile_pages_ = state.sidefile_pages;
    is_range_ = state.is_range;
    range_lo_ = state.range_lo;
    range_hi_ = state.range_hi;
    recovered_extent_pages_ = state.extent_pages;
    recovered_leaf_pages_ = state.leaf_pages;
    // Input keys.
    auto input = state.lists.find("input-keys");
    if (input == state.lists.end()) {
      return Status::Corruption("recovered bulk delete lacks input keys");
    }
    BULKDEL_RETURN_IF_ERROR(LoadList(input->second, &keys_));
    std::sort(keys_.begin(), keys_.end());
    keys_sorted_ = true;

    const std::string key_label = KeyPhaseLabel();
    if (key_index_ != nullptr) {
      if (Done(key_label)) {
        auto rids = state.lists.find("rids");
        if (rids == state.lists.end()) {
          return Status::Corruption("key phase done but no rid list logged");
        }
        BULKDEL_RETURN_IF_ERROR(LoadList(rids->second, &rids_));
      } else if (!state.wal_index_entries.empty()) {
        if (is_range_) {
          // Range resume: only seed the RID list. The re-run key phase
          // deletes whatever of these entries still exists (the [lo, hi]
          // pass rediscovers them — producing duplicates the table phase
          // removes), and a per-entry removal here would free emptied
          // leaves immediately, re-introducing the page-reuse hazard the
          // deferred-free protocol exists to close.
          for (const KeyRid& e : state.wal_index_entries) {
            rids_.push_back(e.rid);
          }
        } else {
          // Replay: remove WAL'd entries whose page writes were lost, and
          // seed the RID list with the WAL'd deletions (their entries are
          // gone, so the re-run below cannot rediscover them).
          std::vector<KeyRid> wal = state.wal_index_entries;
          std::sort(wal.begin(), wal.end());
          BULKDEL_RETURN_IF_ERROR(key_index_->tree->BulkDeleteSortedEntries(
              wal, ReorgMode::kFreeAtEmpty, nullptr));
          for (const KeyRid& e : wal) rids_.push_back(e.rid);
        }
      }
    }

    if (Done("table") || Done("table-no-index")) {
      for (IndexDef* index : secondaries_) {
        if (is_range_ && key_index_ != nullptr) continue;  // no feeds: by RID
        auto feed = state.lists.find("feed:" + index->name);
        if (feed == state.lists.end()) {
          return Status::Corruption("table phase done but feed missing for " +
                                    index->name);
        }
        BULKDEL_RETURN_IF_ERROR(LoadList(feed->second,
                                         &feeds_[index->name]));
      }
    } else if (!state.wal_rows.empty()) {
      // Replay WAL'd row deletions and reconstruct their feed contributions.
      std::vector<Rid> wal_rids;
      wal_rids.reserve(state.wal_rows.size());
      for (const auto& [rid, values] : state.wal_rows) {
        wal_rids.push_back(rid);
        for (size_t i = 0; i < secondaries_.size() && i < values.size();
             ++i) {
          feeds_[secondaries_[i]->name].emplace_back(values[i], rid);
        }
      }
      std::sort(wal_rids.begin(), wal_rids.end());
      uint64_t deleted = 0;
      BULKDEL_RETURN_IF_ERROR(table_->table->BulkDeleteSortedRids(
          wal_rids, nullptr, &deleted, nullptr));
      report_.rows_deleted += deleted;
    }
    rids_sorted_ = false;
    return Status::OK();
  }

  template <typename T>
  Status LoadList(const RecoveredBulkDelete::List& list, std::vector<T>* out) {
    SpilledList<T> spilled;
    spilled.pages = list.pages;
    spilled.count = list.count;
    BULKDEL_ASSIGN_OR_RETURN(*out, ReadSpilled(&db_->disk(), spilled));
    std::lock_guard<std::mutex> lock(mu_);
    spilled_pages_.push_back(list.pages);  // freed at End
    return Status::OK();
  }

  const PlanStep* FindStep(const std::string& name) const {
    auto it = steps_by_name_.find(name);
    if (it != steps_by_name_.end()) return it->second;
    for (const PlanStep& step : plan_.steps) {
      if (step.structure == name) return &step;
    }
    return nullptr;
  }

  ExecContext* ctx_;
  Database* db_;
  TableDef* table_;
  IndexDef* key_index_;
  BulkDeletePlan plan_;
  bool logging_;
  bool parallel_;
  /// Instruments resolved once from the database registry (stable pointers).
  obs::Histogram* idx_latch_hist_;
  obs::Histogram* leaf_reorg_hist_;
  obs::Counter* ckpt_inline_counter_;
  obs::Counter* ckpt_deferred_counter_;
  obs::Gauge* sidefile_depth_gauge_;
  obs::Histogram* sidefile_drain_hist_;
  obs::Histogram* sidefile_catchup_hist_;
  bool resuming_ = false;
  bool committed_ = false;
  bool exclusive_locked_ = false;
  uint64_t bd_id_ = 0;
  std::string key_column_fallback_;

  std::vector<int64_t> keys_;
  bool keys_sorted_ = false;
  /// Range predicate ([lo, hi] on the key column) — keys_ stays empty and
  /// the key/table passes run their leaf-run / extent-drop variants.
  bool is_range_ = false;
  int64_t range_lo_ = 0;
  int64_t range_hi_ = 0;
  /// Heap pages detached by the extent-drop pass (this run / recovered from
  /// kExtentDrop records); freed at finalize after the End record.
  std::vector<PageId> extent_pages_;
  std::vector<PageId> recovered_extent_pages_;
  /// Index nodes detached by the leaf-run pass (this run / recovered from
  /// kRangeLeafRun records); same deferred reclamation as extent pages —
  /// freeing them mid-statement would let a list spill reuse a page that
  /// stale on-disk tree pointers still reference (fatal after a crash).
  std::vector<PageId> dropped_leaf_pages_;
  std::vector<PageId> recovered_leaf_pages_;
  std::vector<Rid> rids_;
  bool rids_sorted_ = false;
  std::map<std::string, std::vector<KeyRid>> feeds_;
  std::vector<IndexDef*> secondaries_;
  std::map<std::string, const PlanStep*> steps_by_name_;

  /// Guards run state shared with concurrent secondary phases.
  mutable std::mutex mu_;
  std::set<std::string> done_;
  std::vector<std::string> deferred_checkpoints_;
  std::vector<std::vector<PageId>> spilled_pages_;
  /// Resume only: §3.1 updater ops recovered from kUpdaterRow records,
  /// replayed idempotently at finalize (once every index is back on-line),
  /// and orphaned side-file spill pages to reclaim after the End record.
  std::vector<RecoveredBulkDelete::UpdaterOp> updater_replay_;
  std::vector<PageId> recovered_sidefile_pages_;

  /// scrub_deleted_pages only: dead RIDs from the no-access-path scan (the
  /// other table passes leave them in rids_), and every page this statement
  /// freed — both consumed by ScrubAfterEnd.
  std::vector<Rid> scrub_rids_;
  std::vector<PageId> scrub_freed_pages_;

  BulkDeleteReport report_;

 public:
  void SetKeyColumnFallback(std::string column) {
    key_column_fallback_ = std::move(column);
  }
};

}  // namespace

Result<BulkDeleteReport> ExecuteVertical(ExecContext* ctx, TableDef* table,
                                         IndexDef* key_index,
                                         const BulkDeleteSpec& spec,
                                         const BulkDeletePlan& plan) {
  VerticalRun run(ctx, table, key_index, plan);
  run.SetKeyColumnFallback(spec.key_column);
  return run.Run(spec);
}

Result<BulkDeleteReport> ResumeVertical(Database* db,
                                        const RecoveredBulkDelete& state) {
  TableDef* table = db->GetTable(state.table);
  if (table == nullptr) {
    return Status::Corruption("recovered bulk delete names unknown table " +
                              state.table);
  }
  IndexDef* key_index = db->GetIndex(state.table, state.key_column);
  BulkDeleteSpec spec;
  spec.table = state.table;
  spec.key_column = state.key_column;
  uint64_t n_delete = state.lists.count("input-keys")
                          ? state.lists.at("input-keys").count
                          : 0;
  if (state.is_range && state.range_hi >= state.range_lo) {
    uint64_t width = static_cast<uint64_t>(state.range_hi) -
                     static_cast<uint64_t>(state.range_lo) + 1;
    n_delete = width == 0 ? table->table->tuple_count()
                          : std::min(width, table->table->tuple_count());
  }
  PlannerInput input = db->MakePlannerInput(table, key_index, n_delete, true);
  input.is_range = state.is_range;
  input.range_lo = state.range_lo;
  input.range_hi = state.range_hi;
  CostModel cost(db->disk().disk_model(), db->options().memory_budget_bytes);
  Planner planner(cost);
  BULKDEL_ASSIGN_OR_RETURN(
      BulkDeletePlan plan,
      planner.PlanFor(Strategy::kVerticalSortMerge, input));
  ExecContext ctx(db);
  VerticalRun run(&ctx, table, key_index, plan);
  run.SetKeyColumnFallback(state.key_column);
  return run.Resume(state);
}

}  // namespace bulkdel
