// §3.2: checkpointing and roll-forward recovery. A bulk delete interrupted
// by a crash must be *finished* on restart (not rolled back), with the final
// state identical to the uninterrupted execution — regardless of which phase
// the crash hit.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "fault/crash_sweep.h"
#include "fault/fault_injector.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

DatabaseOptions RecoveryOptions() {
  DatabaseOptions options;
  options.memory_budget_bytes = 512 * 1024;
  options.enable_recovery_log = true;
  return options;
}

struct Fixture {
  std::unique_ptr<Database> db;
  std::shared_ptr<FaultInjector> injector = std::make_shared<FaultInjector>();
  Workload workload;
  BulkDeleteSpec spec;
  std::set<int64_t> doomed;
  uint64_t n_tuples;
};

Fixture MakeFixture(double fraction = 0.2, uint64_t n = 3000) {
  Fixture f;
  DatabaseOptions options = RecoveryOptions();
  options.fault_injector = f.injector;
  f.db = *Database::Create(options);
  WorkloadSpec spec;
  spec.n_tuples = n;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  f.n_tuples = n;
  f.workload = *SetUpPaperDatabase(f.db.get(), spec, {"A", "B", "C"});
  EXPECT_TRUE(f.db->Checkpoint().ok());
  f.spec.table = "R";
  f.spec.key_column = "A";
  f.spec.keys = f.workload.MakeDeleteKeys(fraction, 123);
  f.doomed.insert(f.spec.keys.begin(), f.spec.keys.end());
  return f;
}

/// Arms a crash at the dispatch of the named phase ("index:R.A", "table",
/// ...): the `sched.phase_start` hit that carries that phase label.
void ArmPhaseCrash(Fixture& f, const std::string& phase) {
  f.injector->Arm(fault_sites::kSchedPhaseStart, 1, FaultMode::kCrash, phase);
}

/// Runs `spec` with a crash armed at `phase`, then revives the injector so
/// the caller can recover. Returns the interrupted statement's status.
Status CrashAtPhase(Fixture& f, const BulkDeleteSpec& spec,
                    const std::string& phase) {
  ArmPhaseCrash(f, phase);
  Status s = f.db->BulkDelete(spec, Strategy::kVerticalSortMerge).status();
  EXPECT_NE(f.injector->trip_description().find("at=" + phase),
            std::string::npos)
      << s.ToString();
  f.injector->Disarm();
  return s;
}

void ExpectFinalState(Fixture& f) {
  TableDef* table = f.db->GetTable("R");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->table->tuple_count(), f.n_tuples - f.doomed.size());
  ASSERT_TRUE(table->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    EXPECT_EQ(f.doomed.count(table->schema->GetInt(tuple, 0)),
                              0u);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(f.db->VerifyIntegrity().ok());
  // The log was truncated after completion.
  EXPECT_EQ(f.db->log().durable_size(), 0u);
}

TEST(RecoveryTest, CompletesWithoutCrash) {
  Fixture f = MakeFixture();
  auto report = f.db->BulkDelete(f.spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectFinalState(f);
}

class RecoveryPhaseCrashTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RecoveryPhaseCrashTest, CrashAtPhaseThenRollForward) {
  Fixture f = MakeFixture();
  Status s = CrashAtPhase(f, f.spec, GetParam());
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

INSTANTIATE_TEST_SUITE_P(Phases, RecoveryPhaseCrashTest,
                         ::testing::Values("index:R.A", "table", "index:R.B",
                                           "index:R.C"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '.') c = '_';
                           }
                           return name;
                         });

TEST(RecoveryTest, CrashBeforeAnyDurableWorkDropsStatement) {
  Fixture f = MakeFixture();
  // Crash at the very first phase; nothing was checkpointed, so whether the
  // statement is dropped or finished, the database must be consistent. Our
  // implementation syncs the input list at Begin, so it rolls forward.
  ASSERT_TRUE(CrashAtPhase(f, f.spec, "index:R.A").IsAborted());
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

// A durable statement whose leg records carry no leg id — the bare labels
// of a log from an older build — is refused rather than silently dropped:
// its half-applied delete would otherwise stay half-applied.
TEST(RecoveryTest, LegRecordNamingNoLegIsCorruption) {
  Fixture f = MakeFixture();
  const uint64_t bd_id = f.db->log().NextBulkDeleteId();
  LogRecord begin;
  begin.type = LogRecordType::kBegin;
  begin.bd_id = bd_id;
  begin.label = "R";
  begin.aux = "A";
  begin.count = 1;
  f.db->log().Append(std::move(begin));
  LogRecord keys;
  keys.type = LogRecordType::kListMaterialized;
  keys.bd_id = bd_id;
  keys.label = "input-keys";
  f.db->log().Append(std::move(keys));
  f.db->log().Sync();
  Status s = f.db->SimulateCrashAndRecover();
  EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
}

TEST(RecoveryTest, DoubleCrashDuringRecoveryIsIdempotent) {
  Fixture f = MakeFixture();
  ASSERT_TRUE(CrashAtPhase(f, f.spec, "table").IsAborted());
  // First recovery is itself interrupted at a later phase.
  ArmPhaseCrash(f, "index:R.C");
  Status first = f.db->SimulateCrashAndRecover();
  ASSERT_TRUE(first.IsAborted()) << first.ToString();
  ASSERT_TRUE(f.injector->tripped());
  f.injector->Disarm();
  // Second recovery finishes the job.
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

TEST(RecoveryTest, CrashAfterCompletionIsNoop) {
  Fixture f = MakeFixture();
  ASSERT_TRUE(f.db->BulkDelete(f.spec, Strategy::kVerticalSortMerge).ok());
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

TEST(RecoveryTest, SequentialBulkDeletesWithCrashBetween) {
  Fixture f = MakeFixture(0.1);
  ASSERT_TRUE(f.db->BulkDelete(f.spec, Strategy::kVerticalSortMerge).ok());

  // Second statement over the survivors, crashed and recovered.
  std::vector<int64_t> second;
  TableDef* table = f.db->GetTable("R");
  ASSERT_TRUE(table->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    int64_t a = table->schema->GetInt(tuple, 0);
                    if (second.size() < 200) second.push_back(a);
                    return Status::OK();
                  })
                  .ok());
  BulkDeleteSpec spec2 = f.spec;
  spec2.keys = second;
  f.doomed.insert(second.begin(), second.end());

  ASSERT_TRUE(CrashAtPhase(f, spec2, "index:R.B").IsAborted());
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

TEST(RecoveryTest, WalSupersedesLostPageWrites) {
  // Force heavy eviction (tiny pool) so parts of the modified leaf level are
  // written back (durable) while others are lost at the crash: the WAL +
  // idempotent re-run must still converge.
  Fixture f;
  DatabaseOptions options = RecoveryOptions();
  options.memory_budget_bytes = 64 * 1024;  // 16 frames
  options.fault_injector = f.injector;
  f.db = *Database::Create(options);
  WorkloadSpec spec;
  spec.n_tuples = 3000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  f.n_tuples = spec.n_tuples;
  f.workload = *SetUpPaperDatabase(f.db.get(), spec, {"A", "B", "C"});
  ASSERT_TRUE(f.db->Checkpoint().ok());
  f.spec.table = "R";
  f.spec.key_column = "A";
  f.spec.keys = f.workload.MakeDeleteKeys(0.3, 5);
  f.doomed.insert(f.spec.keys.begin(), f.spec.keys.end());

  ASSERT_TRUE(CrashAtPhase(f, f.spec, "table").IsAborted());
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

TEST(RecoveryTest, ParallelCrashBetweenSecondariesAndFinalizeCheckpoint) {
  // The per-secondary checkpoints are deferred: each (here parallel) phase
  // only records its PhaseDone label, and the finalize step flushes once
  // for all of them. Crash in exactly that window — every secondary phase
  // has completed, nothing about them is durable yet — and recovery must
  // re-run them idempotently.
  Fixture f;
  DatabaseOptions options = RecoveryOptions();
  options.exec_threads = 4;
  options.fault_injector = f.injector;
  f.db = *Database::Create(options);
  WorkloadSpec spec;
  spec.n_tuples = 3000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  f.n_tuples = spec.n_tuples;
  f.workload = *SetUpPaperDatabase(f.db.get(), spec, {"A", "B", "C"});
  ASSERT_TRUE(f.db->Checkpoint().ok());
  f.spec.table = "R";
  f.spec.key_column = "A";
  f.spec.keys = f.workload.MakeDeleteKeys(0.2, 123);
  f.doomed.insert(f.spec.keys.begin(), f.spec.keys.end());

  f.injector->Arm(fault_sites::kExecFinalize, 1);
  auto report = f.db->BulkDelete(f.spec, Strategy::kVerticalSortMerge);
  ASSERT_FALSE(report.ok());
  ASSERT_TRUE(f.injector->tripped()) << report.status().ToString();

  f.injector->Disarm();
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
  // The re-run is idempotent: crashing again after completion changes
  // nothing.
  ASSERT_TRUE(f.db->SimulateCrashAndRecover().ok());
  ExpectFinalState(f);
}

// The table pass logs no record per row: between the start of the `table`
// phase and `barrier:tables` it appends only its `feed:*` lists, one per
// secondary, whatever the number of rows it deletes.
TEST(RecoveryTest, TablePassAppendsOnlyItsFeedLists) {
  for (double fraction : {0.02, 0.3}) {
    std::map<std::string, uint64_t> appended_at;  // phase -> appended_seq
    Database* raw = nullptr;
    DatabaseOptions options = RecoveryOptions();
    options.phase_begin_hook = [&](const std::string& phase) {
      if (raw != nullptr) appended_at[phase] = raw->log().appended_seq();
    };
    auto db = *Database::Create(options);
    WorkloadSpec spec;
    spec.n_tuples = 3000;
    spec.n_int_columns = 3;
    spec.tuple_size = 64;
    Workload workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});
    ASSERT_TRUE(db->Checkpoint().ok());
    BulkDeleteSpec bd;
    bd.table = "R";
    bd.key_column = "A";
    bd.keys = workload.MakeDeleteKeys(fraction, 123);
    raw = db.get();
    auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->rows_deleted, bd.keys.size());
    ASSERT_EQ(appended_at.count("table"), 1u);
    ASSERT_EQ(appended_at.count("barrier:tables"), 1u);
    EXPECT_EQ(appended_at["barrier:tables"] - appended_at["table"], 2u)
        << "fraction " << fraction;
  }
}

// A scan pass (the delete column has no index) under a 32 KB pool: evictions
// write heap pages whose slots the pass already cleared, and no record names
// those rows. A crash at each page write of the pass must still recover to
// the uncrashed final state, because the resumed scan projects the feeds of
// the rows its interrupted attempt deleted from their dead bytes.
TEST(RecoveryTest, ScanPassCrashAtEveryPageWriteRecovers) {
  auto injector = std::make_shared<FaultInjector>();
  std::map<std::string, uint64_t> writes_at;  // phase -> disk.write hits
  auto make_db = [&](BulkDeleteSpec* bd) {
    DatabaseOptions options = RecoveryOptions();
    options.memory_budget_bytes = 32 * 1024;
    options.fault_injector = injector;
    options.phase_begin_hook = [&](const std::string& phase) {
      writes_at[phase] = injector->HitCount(fault_sites::kDiskWrite);
    };
    auto db = *Database::Create(options);
    WorkloadSpec spec;
    spec.n_tuples = 2000;
    spec.n_int_columns = 3;
    spec.tuple_size = 64;
    Workload workload = *SetUpPaperDatabase(db.get(), spec, {"B", "C"});
    EXPECT_TRUE(db->Checkpoint().ok());
    bd->table = "R";
    bd->key_column = "A";
    bd->keys = workload.MakeDeleteKeys(0.3, 9);
    injector->ResetCounts();
    writes_at.clear();
    return db;
  };

  BulkDeleteSpec bd;
  auto ref = make_db(&bd);
  auto report = ref->BulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->rows_deleted, bd.keys.size());
  const std::string final_hash = *LogicalContentHash(ref.get(), "R");
  ASSERT_EQ(writes_at.count("table-no-index"), 1u);
  ASSERT_EQ(writes_at.count("barrier:tables"), 1u);
  const uint64_t first = writes_at["table-no-index"] + 1;
  const uint64_t last = writes_at["barrier:tables"];
  ASSERT_GT(last, first) << "the pass wrote no page back";

  for (uint64_t n = first; n <= last; ++n) {
    auto db = make_db(&bd);
    injector->Arm(fault_sites::kDiskWrite, n);
    EXPECT_FALSE(db->BulkDelete(bd, Strategy::kVerticalSortMerge).ok());
    ASSERT_TRUE(injector->tripped()) << "write " << n;
    injector->Disarm();
    Status recovered = db->SimulateCrashAndRecover();
    ASSERT_TRUE(recovered.ok()) << "write " << n << ": "
                                << recovered.ToString();
    EXPECT_EQ(*LogicalContentHash(db.get(), "R"), final_hash)
        << "write " << n;
    Status integrity = db->VerifyIntegrity();
    EXPECT_TRUE(integrity.ok()) << "write " << n << ": "
                                << integrity.ToString();
  }
}

TEST(LogManagerTest, SyncAndVolatileTail) {
  LogManager log;
  LogRecord r;
  r.type = LogRecordType::kBegin;
  r.bd_id = 1;
  log.Append(r);
  EXPECT_EQ(log.durable_size(), 0u);
  log.Sync();
  EXPECT_EQ(log.durable_size(), 1u);
  r.type = LogRecordType::kCommit;
  log.Append(r);
  log.DropVolatileTail();
  log.Sync();
  EXPECT_EQ(log.durable_size(), 1u);  // commit was lost in the "crash"
}

TEST(LogManagerTest, TruncateRemovesCompleted) {
  LogManager log;
  for (uint64_t id : {1ull, 2ull}) {
    LogRecord r;
    r.bd_id = id;
    r.type = LogRecordType::kBegin;
    log.Append(r);
  }
  LogRecord end;
  end.bd_id = 1;
  end.type = LogRecordType::kEnd;
  log.Append(end);
  log.Sync();
  log.TruncateCompleted();
  auto records = log.DurableSnapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].bd_id, 2u);  // the incomplete one survives
}

}  // namespace
}  // namespace bulkdel
