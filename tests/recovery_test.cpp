// §3.2: checkpointing and roll-forward recovery. A bulk delete interrupted
// by a crash must be *finished* on restart (not rolled back), with the final
// state identical to the uninterrupted execution — regardless of which phase
// the crash hit.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/database.h"
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
  // With exec_threads > 1 the per-secondary checkpoints are deferred: each
  // parallel phase only records its PhaseDone label, and the finalize step
  // flushes once for all of them. Crash in exactly that window — every
  // secondary phase has completed, nothing about them is durable yet — and
  // recovery must re-run them idempotently.
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
