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
// WAL + per-level checkpoints so an interrupted statement is rolled forward.
//
// One statement may span several tables: the table it names plus every
// CASCADE leg Phase A planned for it (Fig. 3–5's pipe from one structure's
// deleted keys into the next delete). Each table is a leg of one WAL
// envelope — one bd_id, one commit, one End; a table reached through two FK
// columns is a leg per column — and every leg's passes are nodes of one
// phase DAG, run by PhaseScheduler. Node order is the canonical
// serial order, which the serial scheduler replays exactly:
//
//   {sort-keys} → {key-index passes} → barrier:keys → {table passes}
//     → barrier:tables → {unique secondaries} → commit
//     → {non-unique secondaries} → finalize
//
// Every brace is one node per leg (per index for the secondaries). Within a
// leg the data dependencies are the chain sort → key → table → secondaries;
// across legs only two legs of one table are ordered (a pass over a
// structure both visit waits for the earlier leg's pass), so with
// DatabaseOptions::exec_threads > 1 the nodes of one level run concurrently
// on a worker pool.
//
// Durability: a pass's PhaseDone record is appended only by the barrier that
// closes its level, after that barrier flushed every leg's metas and the
// pool and fsynced the page file once. So §3.2's rule holds per table — a
// pass starts only after its input pass's PhaseDone is durable — with one
// barrier per level instead of one per pass. Secondary passes defer their
// PhaseDone to finalize at every thread count; a crash before finalize
// re-runs them idempotently from the feeds the table barrier made durable.
//
// Concurrency rules inside a run:
//  * barriers, commit and finalize depend on every earlier node and every
//    later node depends on them, so they run exclusively; they flush through
//    Database::FlushStructures, whose latches hold off updater DML too;
//  * pass nodes never flush the pool (it would read page bytes another
//    worker is writing through its pin), only their own index's pages;
//  * shared run state touched by concurrent passes (report counters, the
//    done-pass sets, pending PhaseDone labels, spilled pages) is guarded by
//    mu_; each pass otherwise touches only its own leg's lists and
//    structures.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
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

/// One leg of the statement — a table and the key column its delete list
/// names (VerticalLeg) — plus the intermediate lists its passes hand each
/// other.
struct Leg : VerticalLeg {
  /// Report phase-name prefix: empty for the statement's own table,
  /// "cascade:<table>/" for a CASCADE leg ("cascade:<table>.<column>/" when
  /// the statement reaches that table through several columns).
  std::string phase_prefix;

  /// Heap pages detached by the extent-drop pass (this run / recovered from
  /// kExtentDrop records); freed at finalize after the End record.
  std::vector<PageId> extent_pages;
  std::vector<PageId> recovered_extent_pages;
  /// Index pages detached by a crashed run, recovered from the `pages` of
  /// its kLeafEntriesDeleted records; freed at finalize with the pages this
  /// run's passes detach.
  std::vector<PageId> index_pages;
  std::vector<Rid> rids;
  bool rids_sorted = false;
  std::map<std::string, std::vector<KeyRid>> feeds;
  std::vector<IndexDef*> secondaries;
  std::map<std::string, const PlanStep*> steps_by_name;

  /// Whether this leg holds its table's exclusive lock (the first leg of a
  /// table to lock it; a table reached through two columns is locked once).
  bool exclusive_locked = false;
  /// Passes whose PhaseDone is durable or pending (guarded by the run's mu_).
  std::set<std::string> done;
  uint64_t rows_deleted = 0;
  /// Resume only: §3.1 updater ops on this table recovered from kUpdaterRow
  /// records, replayed idempotently at finalize once every index is back
  /// on-line.
  std::vector<RecoveredLeg::UpdaterOp> updater_replay;
  /// scrub_deleted_pages only: dead RIDs from the no-access-path scan (the
  /// other table passes leave them in `rids`), consumed by ScrubAfterEnd.
  std::vector<Rid> scrub_rids;

  std::string Phase(const std::string& pass) const {
    return phase_prefix + pass;
  }
  std::string WalId() const { return LegId(table->name, spec.key_column); }
  std::string WalLabel(const std::string& name) const {
    return LegLabel(WalId(), name);
  }
  std::string KeyPassLabel() const {
    return key_index != nullptr ? "index:" + key_index->name
                                : "table-no-index";
  }
  std::string TablePassLabel() const {
    return key_index != nullptr ? "table" : "table-no-index";
  }
  const PlanStep* FindStep(const std::string& name) const {
    auto it = steps_by_name.find(name);
    if (it != steps_by_name.end()) return it->second;
    for (const PlanStep& step : plan.steps) {
      if (step.structure == name) return &step;
    }
    return nullptr;
  }
};

std::unique_ptr<Leg> MakeLeg(VerticalLeg in, std::string phase_prefix) {
  auto leg = std::make_unique<Leg>();
  static_cast<VerticalLeg&>(*leg) = std::move(in);
  leg->phase_prefix = std::move(phase_prefix);
  // Canonical secondary order comes from the plan (unique indices first).
  for (const PlanStep& step : leg->plan.steps) {
    if (step.is_table) continue;
    if (leg->key_index != nullptr && step.structure == leg->key_index->name) {
      continue;
    }
    for (auto& index : leg->table->indices) {
      if (index->name == step.structure) {
        leg->secondaries.push_back(index.get());
        leg->steps_by_name[index->name] = &step;
      }
    }
  }
  // Pre-create every feed entry so concurrent secondary phases never
  // mutate the map itself — each phase touches only its own vector.
  for (IndexDef* index : leg->secondaries) {
    leg->feeds.emplace(index->name, std::vector<KeyRid>());
  }
  return leg;
}

/// Wraps a statement's legs (CASCADE legs deepest-first, then its own
/// table) for the run, naming each CASCADE leg's report phases.
std::vector<std::unique_ptr<Leg>> MakeLegs(std::vector<VerticalLeg> in) {
  std::map<std::string, int> legs_of_table;
  for (const VerticalLeg& leg : in) ++legs_of_table[leg.table->name];
  std::vector<std::unique_ptr<Leg>> legs;
  for (size_t i = 0; i < in.size(); ++i) {
    std::string prefix;
    if (i + 1 < in.size()) {
      prefix = "cascade:" + in[i].table->name;
      if (legs_of_table[in[i].table->name] > 1) {
        prefix += "." + in[i].spec.key_column;
      }
      prefix += "/";
    }
    legs.push_back(MakeLeg(std::move(in[i]), std::move(prefix)));
  }
  return legs;
}

class VerticalRun {
 public:
  /// `legs`: CASCADE legs deepest-first, then the statement's own table.
  VerticalRun(ExecContext* ctx, std::vector<std::unique_ptr<Leg>> legs)
      : ctx_(ctx),
        db_(ctx->db()),
        legs_(std::move(legs)),
        logging_(db_->options().enable_recovery_log),
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
    report_.strategy_used = parent().plan.strategy;
    report_.plan_explain = parent().plan.Explain();
    for (const auto& leg : legs_) {
      for (IndexDef* index : leg->secondaries) {
        last_secondary_leg_[index] = leg.get();
      }
    }
  }

  Result<BulkDeleteReport> Run() {
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
    committed_ = state.committed;
    recovered_sidefile_pages_ = state.sidefile_pages;
    Stopwatch total;

    Status status;
    for (size_t i = 0; i < legs_.size() && status.ok(); ++i) {
      status = PrepareResume(legs_[i].get(), state.legs[i]);
    }
    if (status.ok()) status = RunPhases();
    Status cleanup = ReleaseEverything(status.ok());
    BULKDEL_RETURN_IF_ERROR(status);
    BULKDEL_RETURN_IF_ERROR(cleanup);

    FinishReport(&total);
    return report_;
  }

 private:
  /// The statement's own table: the last leg.
  Leg& parent() const { return *legs_.back(); }

  bool Done(const Leg& leg, const std::string& label) const {
    std::lock_guard<std::mutex> lock(mu_);
    return leg.done.count(label) > 0;
  }

  void FinishReport(Stopwatch* total) {
    report_.phases = ctx_->TakePhases();
    // Attributed total (root + per-phase accounts) rather than a
    // DiskManager::stats() delta: the disk total also counts concurrent
    // updaters' and other sessions' traffic, while the attributed sum is
    // exactly this statement's.
    report_.io = ctx_->AttributedTotal();
    report_.wall_micros = total->ElapsedMicros();
    report_.rows_deleted = parent().rows_deleted;
    for (size_t i = 0; i + 1 < legs_.size(); ++i) {
      const Leg* leg = legs_[i].get();
      report_.cascaded_rows += leg->rows_deleted;
      report_.cascade_tables.push_back(
          CascadeTableRows{leg->table->name, leg->rows_deleted});
    }
  }

  /// Assembles the phase DAG — node order is the canonical serial order —
  /// and hands it to the scheduler.
  Status RunPhases() {
    LockAndOffline();
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
    // A barrier (and commit, and finalize) depends on every earlier node, so
    // it runs alone and every later node waits for it.
    auto all_so_far = [&tasks] {
      std::vector<int> deps(tasks.size());
      for (size_t i = 0; i < deps.size(); ++i) deps[i] = static_cast<int>(i);
      return deps;
    };
    // Two legs of one table (reached through two FK columns) share its heap
    // and indices: a pass over a structure another leg already visits in the
    // same level waits for that leg's pass.
    std::map<const void*, int> last_pass_over;
    auto add_pass = [&](std::string label, const void* structure, int dep,
                        std::function<Status()> body) {
      std::vector<int> deps = {dep};
      auto [it, first] = last_pass_over.try_emplace(structure, 0);
      if (!first) deps.push_back(it->second);
      it->second = add(std::move(label), std::move(deps), std::move(body));
    };

    std::vector<int> sort_node(legs_.size());
    for (size_t i = 0; i < legs_.size(); ++i) {
      Leg* leg = legs_[i].get();
      sort_node[i] = add(leg->Phase("sort-keys"), {},
                         [this, leg] { return PhaseSortKeys(leg); });
    }
    for (size_t i = 0; i < legs_.size(); ++i) {
      Leg* leg = legs_[i].get();
      if (leg->key_index == nullptr) continue;
      add_pass(leg->Phase(leg->KeyPassLabel()), leg->key_index, sort_node[i],
               [this, leg] { return PhaseKeyIndex(leg); });
    }
    int keys_barrier = add("barrier:keys", all_so_far(),
                           [this] { return Barrier("barrier:keys"); });

    for (size_t i = 0; i < legs_.size(); ++i) {
      Leg* leg = legs_[i].get();
      if (leg->key_index != nullptr) {
        add_pass(leg->Phase("table"), leg->table, keys_barrier,
                 [this, leg] { return PhaseTable(leg); });
      } else {
        add_pass(leg->Phase("table-no-index"), leg->table, keys_barrier,
                 [this, leg] { return PhaseTableNoIndex(leg); });
      }
    }
    int tables_barrier = add("barrier:tables", all_so_far(),
                             [this] { return Barrier("barrier:tables"); });

    // Unique indices must be consistent before the commit point (§3.1);
    // they depend only on their feeds, so they are mutually independent.
    for (const auto& leg_ptr : legs_) {
      Leg* leg = leg_ptr.get();
      for (IndexDef* index : leg->secondaries) {
        if (!index->options.unique) continue;
        add_pass(leg->Phase("index:" + index->name), index, tables_barrier,
                 [this, leg, index] { return PhaseSecondary(leg, index); });
      }
    }
    int commit_node =
        add("commit", all_so_far(), [this] { return CommitPoint(); });

    // Non-unique indices catch up after the statement commits.
    for (const auto& leg_ptr : legs_) {
      Leg* leg = leg_ptr.get();
      for (IndexDef* index : leg->secondaries) {
        if (index->options.unique) continue;
        add_pass(leg->Phase("index:" + index->name), index, commit_node,
                 [this, leg, index] { return PhaseSecondary(leg, index); });
      }
    }
    add("finalize", all_so_far(), [this] { return FinishRun(); });

    return PhaseScheduler::Run(std::move(tasks), db_->options().exec_threads,
                               ctx_);
  }

  /// Takes every table's exclusive lock once, parents before children — the
  /// order the row-delete cascade takes its shared locks in, so the two
  /// cannot deadlock — and takes the indices off-line.
  void LockAndOffline() {
    IndexMode offline_mode =
        db_->options().concurrency == ConcurrencyProtocol::kSideFile
            ? IndexMode::kOfflineSideFile
            : IndexMode::kOfflineDirect;
    std::set<const TableDef*> locked;
    for (auto it = legs_.rbegin(); it != legs_.rend(); ++it) {
      Leg* leg = it->get();
      if (!locked.insert(leg->table).second) continue;
      db_->locks().LockExclusive(leg->table->name);
      leg->exclusive_locked = true;
      if (db_->options().concurrency == ConcurrencyProtocol::kNone) continue;
      for (auto& index : leg->table->indices) {
        if (offline_mode == IndexMode::kOfflineSideFile) {
          index->cc->side_file.Configure(&db_->disk(),
                                         db_->options().side_file_spill_ops);
        }
        index->cc->mode.store(offline_mode);
      }
    }
  }

  /// Opens the envelope: one kBegin and one durable input-keys list per
  /// leg, then one log sync. Each kBegin carries the leg count, so recovery
  /// can tell a fully opened envelope from a torn one.
  Status LogBegin() {
    if (!logging_) return Status::OK();
    bd_id_ = db_->log().NextBulkDeleteId();
    for (const auto& leg_ptr : legs_) {
      Leg* leg = leg_ptr.get();
      LogRecord begin;
      begin.type = LogRecordType::kBegin;
      begin.bd_id = bd_id_;
      begin.label = leg->table->name;
      begin.aux = leg->spec.key_column;
      begin.count = legs_.size();
      if (leg->spec.is_range()) {
        // Range predicate: [lo, hi] rides in the Begin record itself (a
        // non-empty values field marks the leg as a range delete for
        // recovery). The empty input-keys list below keeps the resume
        // path's list accounting uniform.
        begin.values = {leg->spec.range_lo, leg->spec.range_hi};
      }
      db_->log().Append(std::move(begin));
      BULKDEL_RETURN_IF_ERROR(
          MaterializeList(leg, "input-keys", leg->spec.keys));
    }
    db_->log().Sync();
    return Status::OK();
  }

  template <typename T>
  Status MaterializeList(Leg* leg, const std::string& label,
                         const std::vector<T>& items) {
    if (!logging_) return Status::OK();
    BULKDEL_ASSIGN_OR_RETURN(SpilledList<T> list,
                             SpillToDisk(&db_->disk(), items));
    LogRecord rec;
    rec.type = LogRecordType::kListMaterialized;
    rec.bd_id = bd_id_;
    rec.label = leg->WalLabel(label);
    rec.pages = list.pages;
    rec.count = list.count;
    db_->log().Append(std::move(rec));
    {
      std::lock_guard<std::mutex> lock(mu_);
      spilled_pages_.push_back(std::move(list.pages));
    }
    return Status::OK();
  }

  /// Records a finished pass. Its PhaseDone waits for the barrier that
  /// closes its level: the key-index and table passes' for barrier:keys and
  /// barrier:tables (counted as ckpt.inline), the secondaries' for finalize
  /// (ckpt.deferred).
  void PassDone(Leg* leg, const std::string& label, bool secondary) {
    std::lock_guard<std::mutex> lock(mu_);
    leg->done.insert(label);
    if (!logging_) return;
    pending_phase_done_.push_back(leg->WalLabel(label));
    (secondary ? ckpt_deferred_counter_ : ckpt_inline_counter_)->Add(1);
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      recorder.RecordInstant(obs::TraceCategory::kCheckpoint,
                             leg->Phase(label), "deferred", secondary ? 1 : 0);
    }
  }

  /// Every leg's table, in leg order: whose metas a barrier flushes.
  std::vector<TableDef*> LegTables() const {
    std::vector<TableDef*> tables;
    for (const auto& leg : legs_) tables.push_back(leg->table);
    return tables;
  }

  /// Appends the pending passes' PhaseDone records (volatile until the
  /// caller syncs the log).
  void AppendPendingPhaseDone() {
    for (const std::string& label : pending_phase_done_) {
      LogRecord rec;
      rec.type = LogRecordType::kPhaseDone;
      rec.bd_id = bd_id_;
      rec.label = label;
      db_->log().Append(std::move(rec));
    }
    pending_phase_done_.clear();
  }

  /// Level barrier: every leg's metas and the pool flushed once, the page
  /// file fsynced once (charged no-op under the sim backend, same fault
  /// site either way), then every pass this level finished gets its
  /// PhaseDone record, made durable by one log sync. A level that finished
  /// nothing (a resumed run past it, or no logging) costs nothing.
  Status Barrier(const std::string& name) {
    if (!logging_ || pending_phase_done_.empty()) return Status::OK();
    PhaseScope scope(ctx_, name);
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kExecCheckpoint, name));
    BULKDEL_RETURN_IF_ERROR(db_->FlushStructures(LegTables()));
    BULKDEL_RETURN_IF_ERROR(db_->disk().Flush());
    // Crash window: the level's page writes are durable but its PhaseDone
    // records are not — recovery must re-run its passes idempotently.
    BULKDEL_RETURN_IF_ERROR(
        db_->CheckFault(fault_sites::kExecCheckpointPostFlush, name));
    scope.set_items(pending_phase_done_.size());
    AppendPendingPhaseDone();
    db_->log().Sync();
    return Status::OK();
  }

  Status PhaseSortKeys(Leg* leg) {
    if (leg->spec.keys_sorted) return Status::OK();
    PhaseScope scope(ctx_, leg->Phase("sort-keys"));
    BULKDEL_RETURN_IF_ERROR(SortKeys(
        &db_->disk(), db_->options().memory_budget_bytes, &leg->spec.keys));
    leg->spec.keys_sorted = true;
    scope.set_items(leg->spec.keys.size());
    return Status::OK();
  }

  void AddIndexEntriesDeleted(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    report_.index_entries_deleted += n;
  }

  Status PhaseKeyIndex(Leg* leg) {
    const std::string label = leg->KeyPassLabel();
    if (Done(*leg, label)) return Status::OK();
    PhaseScope scope(ctx_, leg->Phase(label), leg->Phase("sort-keys"));
    const std::string wal_label = leg->WalLabel(label);
    const PlanStep* step = leg->FindStep(leg->key_index->name);
    BTree* tree = leg->key_index->tree.get();
    BtreeBulkDeleteStats stats;
    // One record per leaf the pass changes: the (key, RID) pairs it removed
    // there, and the leaf's page when the pass detached the leaf whole (its
    // free waits for finalize, which a resumed run must still reach). The
    // pass appends it while it pins the leaf, so the pool's WAL rule makes
    // it durable before the leaf's write-back.
    BTree::LeafDeleteFn log_leaf =
        [this, &label, &wal_label](PageId leaf,
                                   const std::vector<KeyRid>& removed,
                                   bool detached) -> Status {
      if (detached) {
        BULKDEL_RETURN_IF_ERROR(
            db_->CheckFault(fault_sites::kBtreeRangeLeafRun, label));
      }
      if (!logging_) return Status::OK();
      LogRecord rec;
      rec.type = LogRecordType::kLeafEntriesDeleted;
      rec.bd_id = bd_id_;
      rec.label = wal_label;
      if (detached) rec.pages = {leaf};
      rec.count = removed.size();
      rec.values.reserve(removed.size() * 2);
      for (const KeyRid& e : removed) {
        rec.values.push_back(e.key);
        rec.values.push_back(static_cast<int64_t>(e.rid.Pack()));
      }
      db_->log().Append(std::move(rec));
      return Status::OK();
    };
    if (leg->spec.is_range()) {
      // Leaf-run pass: fully-covered leaves are detached whole, without
      // ever being written; only the boundary leaves are compacted.
      BULKDEL_RETURN_IF_ERROR(tree->BulkDeleteRange(
          leg->spec.range_lo, leg->spec.range_hi, db_->options().reorg,
          &leg->rids, &stats, log_leaf));
    } else if (step != nullptr && step->method == DeleteMethod::kClassicHash) {
      U64HashSet set(leg->spec.keys.size());
      for (int64_t k : leg->spec.keys) set.Insert(static_cast<uint64_t>(k));
      BULKDEL_RETURN_IF_ERROR(tree->BulkDeleteByPredicate(
          [&](int64_t key, const Rid&) {
            return set.Contains(static_cast<uint64_t>(key));
          },
          db_->options().reorg, &stats, std::nullopt, std::nullopt,
          [&](PageId leaf, const std::vector<KeyRid>& removed, bool detached) {
            for (const KeyRid& e : removed) leg->rids.push_back(e.rid);
            return log_leaf(leaf, removed, detached);
          }));
    } else {
      // Unlogged, the merge needs no callback: the pass then collects no
      // per-leaf entries.
      BULKDEL_RETURN_IF_ERROR(tree->BulkDeleteSortedKeys(
          leg->spec.keys, db_->options().reorg, &leg->rids, &stats,
          logging_ ? log_leaf : nullptr));
    }
    AddIndexEntriesDeleted(stats.entries_deleted);
    leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
    scope.set_items(stats.entries_deleted);
    BULKDEL_RETURN_IF_ERROR(MaterializeList(leg, "rids", leg->rids));
    // The key index locates the records via key order, so the RID list is in
    // key order — physical order only if the index is clustered.
    leg->rids_sorted = leg->key_index->clustered;
    PassDone(leg, label, /*secondary=*/false);
    return Status::OK();
  }

  Status PhaseTable(Leg* leg) {
    const std::string label = "table";
    if (Done(*leg, label)) return Status::OK();
    PhaseScope scope(ctx_, leg->Phase(label), leg->Phase(leg->KeyPassLabel()));
    if (!leg->rids_sorted) {
      BULKDEL_RETURN_IF_ERROR(SortRids(
          &db_->disk(), db_->options().memory_budget_bytes, &leg->rids));
      leg->rids_sorted = true;
    }
    if (leg->spec.is_range()) {
      // A resumed range run seeds RIDs from the kLeafEntriesDeleted records
      // of every interrupted attempt, which may name a RID twice; a
      // duplicate RID would double-count a page's doomed tuples in the
      // extent-drop coverage proof, so collapse them here.
      leg->rids.erase(std::unique(leg->rids.begin(), leg->rids.end(),
                                  [](const Rid& a, const Rid& b) {
                                    return a.Pack() == b.Pack();
                                  }),
                      leg->rids.end());
      // Extent-drop pass: fully-covered heap pages are spliced out of the
      // chain without being read (no feeds to project — range secondaries
      // probe by RID). Each drop is WAL-logged before the splice; the pages
      // themselves are freed at finalize, after the End record is durable.
      uint64_t deleted = 0;
      auto on_drop = [this, leg](PageId page, uint64_t tuples) -> Status {
        BULKDEL_RETURN_IF_ERROR(db_->CheckFault(fault_sites::kHeapExtentDrop,
                                                std::to_string(page)));
        if (logging_) {
          LogRecord rec;
          rec.type = LogRecordType::kExtentDrop;
          rec.bd_id = bd_id_;
          rec.label = leg->WalId();
          rec.pages = {page};
          rec.count = tuples;
          db_->log().Append(std::move(rec));
        }
        return Status::OK();
      };
      BULKDEL_RETURN_IF_ERROR(
          leg->table->table->BulkDeleteSortedRidsExtentDrop(
              leg->rids, leg->recovered_extent_pages, on_drop, nullptr,
              &deleted, &leg->extent_pages));
      leg->rows_deleted += deleted;
      scope.set_items(deleted);
      PassDone(leg, label, /*secondary=*/false);
      return Status::OK();
    }
    std::vector<std::vector<KeyRid>*> feeds = SecondaryFeeds(leg);
    uint64_t deleted = 0;
    BULKDEL_RETURN_IF_ERROR(leg->table->table->BulkDeleteSortedRids(
        leg->rids,
        [&](const Rid& rid, const char* tuple) {
          ProjectRow(leg, feeds, rid, tuple);
        },
        &deleted, nullptr, /*with_dead=*/resuming_));
    leg->rows_deleted += deleted;
    scope.set_items(deleted);
    for (IndexDef* index : leg->secondaries) {
      BULKDEL_RETURN_IF_ERROR(MaterializeList(leg, "feed:" + index->name,
                                              leg->feeds[index->name]));
    }
    PassDone(leg, label, /*secondary=*/false);
    return Status::OK();
  }

  /// Every secondary's feed vector in `secondaries` order, looked up once
  /// per table pass instead of once per deleted row and index.
  static std::vector<std::vector<KeyRid>*> SecondaryFeeds(Leg* leg) {
    std::vector<std::vector<KeyRid>*> feeds;
    feeds.reserve(leg->secondaries.size());
    for (IndexDef* index : leg->secondaries) {
      feeds.push_back(&leg->feeds.at(index->name));
    }
    return feeds;
  }

  /// Table-pass bookkeeping for one deleted row: projects its secondary keys
  /// into `feeds`. The pass logs nothing per row; its redo is its durable
  /// input plus an idempotent re-run (§3.2). A resumed pass projects the rows
  /// its interrupted attempt already deleted from their dead bytes, which
  /// are intact: a heap delete only clears the slot bit, the table stays
  /// locked past barrier:tables, and the scrub runs after End.
  static void ProjectRow(Leg* leg,
                         const std::vector<std::vector<KeyRid>*>& feeds,
                         const Rid& rid, const char* tuple) {
    const Schema& schema = *leg->table->schema;
    for (size_t i = 0; i < leg->secondaries.size(); ++i) {
      feeds[i]->emplace_back(
          schema.GetInt(tuple,
                        static_cast<size_t>(leg->secondaries[i]->column)),
          rid);
    }
  }

  /// Fallback when no index exists on the delete-list column: one full table
  /// scan probing a main-memory hash of the keys (there is no access path, so
  /// the scan is unavoidable; the plan stays vertical for the indices).
  Status PhaseTableNoIndex(Leg* leg) {
    const std::string label = "table-no-index";
    if (Done(*leg, label)) return Status::OK();
    PhaseScope scope(ctx_, leg->Phase(label), leg->Phase("sort-keys"));
    int key_column = leg->table->schema->FindColumn(leg->spec.key_column);
    if (key_column < 0) {
      return Status::NotFound("no column " + leg->spec.key_column);
    }
    U64HashSet set(leg->spec.keys.size());
    if (!leg->spec.is_range()) {
      for (int64_t k : leg->spec.keys) set.Insert(static_cast<uint64_t>(k));
    }
    const Schema& schema = *leg->table->schema;
    std::vector<std::vector<KeyRid>*> feeds = SecondaryFeeds(leg);
    uint64_t deleted = 0;
    // Resumed, free slots whose dead bytes match are projected too
    // (ProjectRow). That also picks up dead rows of earlier statements; their
    // (key, RID) entries already left the secondaries, so the idempotent
    // secondary passes find nothing to delete for them.
    BULKDEL_RETURN_IF_ERROR(leg->table->table->ScanDeleteIf(
        [&](const Rid&, const char* tuple) {
          int64_t k = schema.GetInt(tuple, static_cast<size_t>(key_column));
          // Range with no access path: one predicate scan — the predicate is
          // evaluated here, inside the admission window, not at parse time.
          if (leg->spec.is_range()) {
            return k >= leg->spec.range_lo && k <= leg->spec.range_hi;
          }
          return set.Contains(static_cast<uint64_t>(k));
        },
        [&](const Rid& rid, const char* tuple) {
          ProjectRow(leg, feeds, rid, tuple);
          // This path never fills `rids` (no access-path pass produced one);
          // the scrub pass needs the dead slots, so collect them here.
          if (db_->options().scrub_deleted_pages) {
            leg->scrub_rids.push_back(rid);
          }
        },
        &deleted, /*with_dead=*/resuming_));
    leg->rows_deleted += deleted;
    scope.set_items(deleted);
    for (IndexDef* index : leg->secondaries) {
      BULKDEL_RETURN_IF_ERROR(MaterializeList(leg, "feed:" + index->name,
                                              leg->feeds[index->name]));
    }
    PassDone(leg, label, /*secondary=*/false);
    return Status::OK();
  }

  /// Runs on a scheduler worker when exec_threads > 1; touches only this
  /// index's feed and structures plus mu_-guarded run state.
  Status PhaseSecondary(Leg* leg, IndexDef* index) {
    std::string label = "index:" + index->name;
    if (Done(*leg, label)) return BringOnlineAfter(leg, index);
    PhaseScope scope(ctx_, leg->Phase(label),
                     leg->Phase(leg->TablePassLabel()));
    const PlanStep* step = leg->FindStep(index->name);
    DeleteMethod method = step != nullptr ? step->method : DeleteMethod::kMerge;
    std::vector<KeyRid>& feed = leg->feeds.at(index->name);
    BtreeBulkDeleteStats stats;

    if (leg->spec.is_range() && leg->key_index != nullptr) {
      // Range plans skip feed projection: the RID list from the leaf-run
      // pass probes each secondary directly (`rids` is immutable once the
      // table phase is done, so concurrent secondary phases share it).
      std::unique_lock<std::mutex> latch = LatchIndex(index);
      BULKDEL_RETURN_IF_ERROR(HashDeleteIndexByRids(
          index->tree.get(), leg->rids, db_->options().reorg, &stats));
      latch.unlock();
      AddIndexEntriesDeleted(stats.entries_deleted);
      leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
      scope.set_items(stats.entries_deleted);
      BULKDEL_RETURN_IF_ERROR(BringOnlineAfter(leg, index));
      PassDone(leg, label, /*secondary=*/true);
      return Status::OK();
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
    AddIndexEntriesDeleted(stats.entries_deleted);
    leaf_reorg_hist_->Observe(static_cast<int64_t>(stats.leaves_freed));
    scope.set_items(stats.entries_deleted);
    BULKDEL_RETURN_IF_ERROR(BringOnlineAfter(leg, index));
    PassDone(leg, label, /*secondary=*/true);
    return Status::OK();
  }

  /// Brings `index` on-line after `leg`'s secondary pass over it, unless a
  /// later leg of the same table still has a pass over it.
  Status BringOnlineAfter(const Leg* leg, IndexDef* index) {
    if (last_secondary_leg_.at(index) != leg) return Status::OK();
    return BringOnline(index);
  }

  /// Whether a non-unique secondary pass — which runs after the commit —
  /// still visits `index`: a key index of one leg can be a secondary of
  /// another leg of the same table.
  bool HasPassAfterCommit(const IndexDef* index) const {
    return !index->options.unique && last_secondary_leg_.count(index) > 0;
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
    return Status::OK();
  }

  /// Applies a drained batch the set-oriented way (the point of §3.1.1's
  /// catch-up): collapse it last-op-wins per (key, RID) composite, then run
  /// the deletions through the same sorted-merge leaf pass the bulk delete
  /// itself uses, and the insertions as ordered point inserts (the sorted
  /// stream keeps the descent path cached) — rather than replaying
  /// record-at-a-time in arrival order. Both tolerate entries a failed
  /// ConsumeFront already applied, so re-application is idempotent, and
  /// neither frees a page before End.
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
      BULKDEL_RETURN_IF_ERROR(index->tree->BulkDeleteSortedEntries(
          deletes, ReorgMode::kFreeAtEmpty, nullptr));
    }
    for (const KeyRid& e : inserts) {
      Status s = index->tree->Insert(e.key, e.rid);
      if (!s.ok() && s.code() != StatusCode::kAlreadyExists) return s;
    }
    return Status::OK();
  }

  /// Resume only: rolls the recovered §3.1 updater DML on `leg`'s table
  /// forward. Ops at different RIDs are independent, but a slot freed by a
  /// logged delete may have been reused by a later logged insert at the same
  /// RID — and any prefix of that history may already be durable (evictions
  /// and checkpoints flush heap and index pages independently). So the ops
  /// are grouped by RID and each group is reconciled as a unit to its net
  /// final state instead of being re-executed record-at-a-time.
  Status ReplayUpdaterOps(Leg* leg) {
    if (leg->updater_replay.empty()) return Status::OK();
    std::vector<std::vector<const RecoveredLeg::UpdaterOp*>> groups;
    std::map<uint64_t, size_t> group_of;
    for (const RecoveredLeg::UpdaterOp& op : leg->updater_replay) {
      auto [it, is_new] = group_of.try_emplace(op.rid.Pack(), groups.size());
      if (is_new) groups.emplace_back();
      groups[it->second].push_back(&op);
    }
    for (const auto& group : groups) {
      BULKDEL_RETURN_IF_ERROR(ReplayRidGroup(leg->table, group));
    }
    leg->updater_replay.clear();
    return Status::OK();
  }

  /// Materializes a kUpdaterRow record's int values into tuple bytes.
  static Status MaterializeUpdaterRow(TableDef* table,
                                      const std::vector<int64_t>& values,
                                      std::vector<char>* tuple) {
    tuple->assign(table->schema->tuple_size(), 0);
    size_t vi = 0;
    for (size_t c = 0; c < table->schema->num_columns(); ++c) {
      if (table->schema->column(c).type != ColumnType::kInt64) continue;
      if (vi >= values.size()) {
        return Status::Corruption("updater record too short for " +
                                  table->name);
      }
      table->schema->SetInt(tuple->data(), c, values[vi++]);
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
  static Status ReplayRidGroup(
      TableDef* table,
      const std::vector<const RecoveredLeg::UpdaterOp*>& ops) {
    const Rid rid = ops.front()->rid;
    const size_t tuple_size = table->schema->tuple_size();
    std::vector<std::vector<char>> rows(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      BULKDEL_RETURN_IF_ERROR(
          MaterializeUpdaterRow(table, ops[i]->values, &rows[i]));
    }

    std::vector<char> current(tuple_size);
    Status get = table->table->Get(rid, current.data());
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
        BULKDEL_RETURN_IF_ERROR(table->table->InsertAt(rid, rows.back().data()));
      } else if (std::memcmp(current.data(), rows.back().data(), tuple_size) !=
                 0) {
        // Durable state stopped at an earlier insert the log later deleted.
        BULKDEL_RETURN_IF_ERROR(table->table->Delete(rid));
        BULKDEL_RETURN_IF_ERROR(table->table->InsertAt(rid, rows.back().data()));
      }
    } else if (occupied) {
      BULKDEL_RETURN_IF_ERROR(table->table->Delete(rid));
    }

    for (auto& index : table->indices) {
      // Last op naming a key decides whether (key, rid) survives.
      std::vector<std::pair<int64_t, bool>> final_state;
      for (size_t i = 0; i < ops.size(); ++i) {
        int64_t key = table->schema->GetInt(
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

  void UnlockTables() {
    for (const auto& leg : legs_) {
      if (leg->exclusive_locked) {
        db_->locks().UnlockExclusive(leg->table->name);
        leg->exclusive_locked = false;
      }
    }
  }

  /// Every table and unique index done: the statement commits; concurrent
  /// readers and updaters may proceed while non-unique indices catch up
  /// (§3.1). Runs exclusively: every unique-secondary node precedes it in
  /// the DAG.
  Status CommitPoint() {
    if (committed_) {
      UnlockTables();
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
    for (const auto& leg : legs_) {
      if (leg->key_index != nullptr && !HasPassAfterCommit(leg->key_index)) {
        BULKDEL_RETURN_IF_ERROR(BringOnline(leg->key_index));
      }
      for (IndexDef* index : leg->secondaries) {
        if (index->options.unique) {
          BULKDEL_RETURN_IF_ERROR(BringOnline(index));
        }
      }
    }
    UnlockTables();
    return Status::OK();
  }

  /// Terminal DAG node; runs exclusively (depends on everything else), so
  /// flushing is safe and the deferred secondary PhaseDone records become
  /// durable here, just before the End record.
  Status FinishRun() {
    PhaseScope scope(ctx_, "finalize", parent().Phase(parent().TablePassLabel()));
    // Resume only: replay the §3.1 updater DML recovered from kUpdaterRow
    // records. Runs here — after every secondary phase, so each index is
    // back on-line — and before the flush below makes the effects durable.
    // Idempotent (RID-directed), so a crash mid-replay just replays again.
    for (const auto& leg : legs_) {
      BULKDEL_RETURN_IF_ERROR(ReplayUpdaterOps(leg.get()));
    }
    // Crash window: every phase body has completed, but the secondary
    // PhaseDone records are still pending (volatile) — recovery must re-run
    // those phases idempotently from the checkpointed feeds.
    BULKDEL_RETURN_IF_ERROR(db_->CheckFault(fault_sites::kExecFinalize));
    // Finalize barrier: everything the statement wrote is fsynced before the
    // End record can truncate the WAL that would otherwise re-create it.
    BULKDEL_RETURN_IF_ERROR(db_->FlushStructures(LegTables()));
    BULKDEL_RETURN_IF_ERROR(db_->disk().Flush());
    if (logging_) {
      AppendPendingPhaseDone();
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
    //  * the index pages the bulk passes detached (emptied leaves and
    //    replaced inner nodes): freeing one earlier would let the allocator
    //    hand it out while the on-disk tree may still reach it.
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
    for (const auto& leg : legs_) {
      for (auto& index : leg->table->indices) {
        free_after(index->cc->side_file.TakeReclaimablePages());
      }
    }
    free_after(std::exchange(recovered_sidefile_pages_, {}));
    for (const auto& leg : legs_) {
      free_after(std::exchange(leg->extent_pages, {}));
      free_after(std::exchange(leg->recovered_extent_pages, {}));
      free_after(std::exchange(leg->index_pages, {}));
      for (auto& index : leg->table->indices) {
        free_after(index->tree->TakeDetachedPages());
      }
    }
    for (PageId p : free_after_end) {
      BULKDEL_RETURN_IF_ERROR(db_->pool().DeletePage(p));
      if (db_->options().scrub_deleted_pages) scrub_freed_pages_.push_back(p);
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
  /// completion). Two legs: memset the dead slots of every table's surviving
  /// heap pages (through the pool, flushed below), and overwrite every page
  /// this statement freed — heap extents, dropped B-tree leaves, spilled
  /// delete-list / side-file scratch pages — with zeros directly on disk
  /// (they are out of the pool, so no stale frame can resurrect the bytes).
  Status ScrubAfterEnd() {
    std::unordered_set<PageId> freed(scrub_freed_pages_.begin(),
                                     scrub_freed_pages_.end());
    bool any_dead = false;
    for (const auto& leg : legs_) {
      std::vector<Rid> dead = leg->rids;
      dead.insert(dead.end(), leg->scrub_rids.begin(), leg->scrub_rids.end());
      std::sort(dead.begin(), dead.end());
      dead.erase(std::unique(dead.begin(), dead.end()), dead.end());
      if (dead.empty()) continue;
      any_dead = true;
      std::lock_guard<std::mutex> heap(leg->table->heap_latch);
      BULKDEL_RETURN_IF_ERROR(leg->table->table->ScrubDeadSlots(dead, freed));
    }
    // The metas are unchanged since finalize's flush: only the pool sweep.
    if (any_dead) BULKDEL_RETURN_IF_ERROR(db_->FlushStructures({}));
    if (!freed.empty()) {
      std::vector<char> zeros(kPageSize, 0);
      for (PageId p : scrub_freed_pages_) {
        BULKDEL_RETURN_IF_ERROR(db_->disk().WritePage(p, zeros.data()));
      }
    }
    scrub_freed_pages_.clear();
    if (!any_dead && freed.empty()) return Status::OK();
    return db_->disk().Flush();
  }

  /// Always runs, success or failure: release the locks, restore index
  /// modes (a crashed run leaves everything off-line on purpose — recovery
  /// fixes it — but an error with no logging must not wedge the database).
  Status ReleaseEverything(bool success) {
    if (logging_) db_->SetUpdaterLoggingId(0);
    UnlockTables();
    if (success || logging_) return Status::OK();
    // Error without recovery logging: nothing will roll this forward, so
    // do not wedge the database off-line. Apply whatever side-file tail
    // exists best-effort, then flip on-line (the statement itself already
    // failed; updater ops are at least not silently dropped).
    for (const auto& leg : legs_) {
      for (auto& index : leg->table->indices) {
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

  Status PrepareResume(Leg* leg, const RecoveredLeg& state) {
    leg->done = state.phases_done;
    leg->updater_replay = state.updater_ops;
    leg->recovered_extent_pages = state.extent_pages;
    leg->index_pages = state.leaf_pages;
    // Input keys.
    auto input = state.lists.find("input-keys");
    if (input == state.lists.end()) {
      return Status::Corruption("recovered bulk delete lacks input keys for " +
                                state.table);
    }
    BULKDEL_RETURN_IF_ERROR(LoadList(input->second, &leg->spec.keys));
    std::sort(leg->spec.keys.begin(), leg->spec.keys.end());
    leg->spec.keys_sorted = true;

    if (leg->key_index != nullptr) {
      if (Done(*leg, leg->KeyPassLabel())) {
        auto rids = state.lists.find("rids");
        if (rids == state.lists.end()) {
          return Status::Corruption("key phase done but no rid list logged");
        }
        BULKDEL_RETURN_IF_ERROR(LoadList(rids->second, &leg->rids));
      } else if (!state.wal_index_entries.empty()) {
        // Replay: remove WAL'd entries whose page writes were lost (for a
        // range leg, also the entries of its logged whole-leaf drops), and
        // seed the RID list with the WAL'd deletions (their entries are
        // gone, so the re-run below cannot rediscover them).
        std::vector<KeyRid> wal = state.wal_index_entries;
        std::sort(wal.begin(), wal.end());
        BULKDEL_RETURN_IF_ERROR(leg->key_index->tree->BulkDeleteSortedEntries(
            wal, ReorgMode::kFreeAtEmpty, nullptr));
        for (const KeyRid& e : wal) leg->rids.push_back(e.rid);
      }
    }

    if (Done(*leg, "table") || Done(*leg, "table-no-index")) {
      for (IndexDef* index : leg->secondaries) {
        // Range plans probe the secondaries by RID: no feeds.
        if (leg->spec.is_range() && leg->key_index != nullptr) continue;
        auto feed = state.lists.find("feed:" + index->name);
        if (feed == state.lists.end()) {
          return Status::Corruption("table phase done but feed missing for " +
                                    index->name);
        }
        BULKDEL_RETURN_IF_ERROR(
            LoadList(feed->second, &leg->feeds[index->name]));
      }
    }
    leg->rids_sorted = false;
    return Status::OK();
  }

  template <typename T>
  Status LoadList(const RecoveredLeg::List& list, std::vector<T>* out) {
    SpilledList<T> spilled;
    spilled.pages = list.pages;
    spilled.count = list.count;
    BULKDEL_ASSIGN_OR_RETURN(*out, ReadSpilled(&db_->disk(), spilled));
    std::lock_guard<std::mutex> lock(mu_);
    spilled_pages_.push_back(list.pages);  // freed at End
    return Status::OK();
  }

  ExecContext* ctx_;
  Database* db_;
  /// CASCADE legs deepest-first, then the statement's own table.
  std::vector<std::unique_ptr<Leg>> legs_;
  /// For each secondary index, the last leg whose pass visits it (the one
  /// that brings it on-line).
  std::map<const IndexDef*, const Leg*> last_secondary_leg_;
  bool logging_;
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
  uint64_t bd_id_ = 0;

  /// Guards run state shared with concurrent passes.
  mutable std::mutex mu_;
  /// WAL labels of finished passes whose PhaseDone awaits the next barrier.
  std::vector<std::string> pending_phase_done_;
  std::vector<std::vector<PageId>> spilled_pages_;
  /// Resume only: orphaned side-file spill pages to reclaim after the End
  /// record.
  std::vector<PageId> recovered_sidefile_pages_;
  /// scrub_deleted_pages only: every page this statement freed, consumed by
  /// ScrubAfterEnd.
  std::vector<PageId> scrub_freed_pages_;

  BulkDeleteReport report_;
};

}  // namespace

Result<BulkDeleteReport> ExecuteVertical(ExecContext* ctx,
                                         std::vector<VerticalLeg> legs) {
  if (legs.empty()) return Status::Internal("vertical delete without legs");
  VerticalRun run(ctx, MakeLegs(std::move(legs)));
  return run.Run();
}

Result<BulkDeleteReport> ResumeVertical(Database* db,
                                        const RecoveredBulkDelete& state) {
  CostModel cost(db->disk().disk_model(), db->options().memory_budget_bytes);
  Planner planner(cost);
  std::vector<VerticalLeg> legs;
  for (const RecoveredLeg& rec : state.legs) {
    TableDef* table = db->GetTable(rec.table);
    if (table == nullptr) {
      return Status::Corruption("recovered bulk delete names unknown table " +
                                rec.table);
    }
    VerticalLeg leg;
    leg.table = table;
    leg.key_index = db->GetIndex(rec.table, rec.key_column);
    leg.spec.table = rec.table;
    leg.spec.key_column = rec.key_column;
    if (rec.is_range) {
      leg.spec.predicate = DeletePredicate::kRange;
      leg.spec.range_lo = rec.range_lo;
      leg.spec.range_hi = rec.range_hi;
    }
    uint64_t n_delete =
        rec.lists.count("input-keys") ? rec.lists.at("input-keys").count : 0;
    if (rec.is_range && rec.range_hi >= rec.range_lo) {
      uint64_t width = static_cast<uint64_t>(rec.range_hi) -
                       static_cast<uint64_t>(rec.range_lo) + 1;
      n_delete = width == 0 ? table->table->tuple_count()
                            : std::min(width, table->table->tuple_count());
    }
    PlannerInput input =
        db->MakePlannerInput(table, leg.key_index, n_delete, true);
    input.is_range = rec.is_range;
    input.range_lo = rec.range_lo;
    input.range_hi = rec.range_hi;
    BULKDEL_ASSIGN_OR_RETURN(
        leg.plan, planner.PlanFor(Strategy::kVerticalSortMerge, input));
    legs.push_back(std::move(leg));
  }
  if (legs.empty()) return Status::Internal("recovered statement has no legs");
  ExecContext ctx(db);
  VerticalRun run(&ctx, MakeLegs(std::move(legs)));
  return run.Resume(state);
}

}  // namespace bulkdel
