// End-to-end tests of the file durability backend: a Database opened with a
// non-empty path keeps its pages in `<dir>/pages.db` (pread/pwrite + fsync)
// and its WAL in `<dir>/wal.log` (checksummed binary frames, group-commit
// fsync). Crashes are simulated the way a real crash behaves — every
// in-memory structure is discarded and the database reopens from the files
// alone. The simulated I/O accounting must be bit-identical to the
// in-memory backend's: the DiskModel charges by page-access sequence, never
// by medium.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/database.h"
#include "fault/crash_sweep.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::string cleanup = "rm -rf " + dir;
  [[maybe_unused]] int rc = std::system(cleanup.c_str());
  return dir;
}

DatabaseOptions FileOptions(const std::string& dir) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  options.path = dir;
  return options;
}

Workload LoadPaperWorkload(Database* db, uint64_t n_tuples = 2000) {
  WorkloadSpec spec;
  spec.n_tuples = n_tuples;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  return *SetUpPaperDatabase(db, spec, {"A", "B"});
}

TEST(FileBackedTest, BulkDeleteAndCrashRecoverFromDisk) {
  auto db = *Database::Create(FileOptions(FreshDir("bd_file_crash")));
  EXPECT_EQ(db->storage_backend(), StorageBackend::kFile);
  Workload workload = LoadPaperWorkload(db.get());

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.2, 3);
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 400u);
  EXPECT_EQ(report->backend, "file");
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(db->Checkpoint().ok());

  // Crash: all process state discarded, reopened from pages.db + wal.log.
  ASSERT_TRUE(db->SimulateCrashAndRecover().ok());
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 1600u);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST(FileBackedTest, CleanCloseThenOpenRestoresTheDatabase) {
  std::string dir = FreshDir("bd_file_reopen");
  uint64_t free_pages = 0;
  {
    auto db = *Database::Create(FileOptions(dir));
    Workload workload = LoadPaperWorkload(db.get());
    BulkDeleteSpec bd;
    bd.table = "R";
    bd.key_column = "A";
    bd.keys = workload.MakeDeleteKeys(0.25, 5);
    ASSERT_TRUE(db->BulkDelete(bd, Strategy::kVerticalHash).ok());
    free_pages = db->disk().NumFreePages();
    ASSERT_TRUE(db->Close().ok());
  }
  // A separate "process": a brand-new Database object over the directory.
  auto reopened = Database::Open(FileOptions(dir));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto db = std::move(reopened).TakeValue();
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 1500u);
  // The clean-shutdown sidecar restored the free list exactly.
  EXPECT_EQ(db->disk().NumFreePages(), free_pages);
  ASSERT_TRUE(db->VerifyIntegrity().ok());

  // The sidecar is consumed on open: a second open without a Close in
  // between behaves like a crash reopen (free list leaked, not corrupted).
  ASSERT_TRUE(db->Close().ok());
}

TEST(FileBackedTest, OpenOnEmptyDirectoryReportsNotFound) {
  auto missing = Database::Open(FileOptions(FreshDir("bd_file_missing")));
  EXPECT_TRUE(missing.status().IsNotFound()) << missing.status().ToString();
}

TEST(FileBackedTest, PageFileGrowsWithData) {
  std::string dir = FreshDir("bd_file_grow");
  auto db = *Database::Create(FileOptions(dir));
  Schema schema = *Schema::PaperStyle(2, 256);
  ASSERT_TRUE(db->CreateTable("T", schema).ok());
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db->InsertRow("T", {i, i}).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  // ~1000 * 256B = 64+ pages must be in the page file.
  std::string pages_path = dir + "/pages.db";
  FILE* f = std::fopen(pages_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  EXPECT_GT(size, 64 * 4096);
  // The WAL file exists alongside.
  FILE* wal = std::fopen((dir + "/wal.log").c_str(), "r");
  ASSERT_NE(wal, nullptr);
  std::fclose(wal);
}

/// The acceptance bar for the pluggable backend: same workload, same seed,
/// same strategy — the simulated I/O totals and the fault-site hit counts
/// must be bit-identical between the sim and file backends. Wall time is the
/// only thing allowed to differ.
TEST(FileBackedTest, SimAndFileBackendsChargeIdenticalIo) {
  struct RunResult {
    IoStats io;
    uint64_t rows = 0;
    std::map<std::string, uint64_t> fault_hits;
  };
  auto run = [](const std::string& dir) -> RunResult {
    DatabaseOptions options;
    options.memory_budget_bytes = 128 * 1024;  // small: force evictions
    options.enable_recovery_log = true;
    options.path = dir;  // empty = sim
    auto injector = std::make_shared<FaultInjector>(1);
    options.fault_injector = injector;
    auto db = *Database::Create(options);
    Workload workload = LoadPaperWorkload(db.get(), 1500);
    injector->ResetCounts();
    BulkDeleteSpec bd;
    bd.table = "R";
    bd.key_column = "A";
    bd.keys = workload.MakeDeleteKeys(0.3, 9);
    auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    RunResult result;
    result.io = report->io;
    result.rows = report->rows_deleted;
    result.fault_hits = injector->HitCounts();
    return result;
  };

  RunResult sim = run("");
  RunResult file = run(FreshDir("bd_file_identity"));
  EXPECT_EQ(sim.rows, file.rows);
  EXPECT_EQ(sim.io.reads, file.io.reads);
  EXPECT_EQ(sim.io.writes, file.io.writes);
  EXPECT_EQ(sim.io.sequential_accesses, file.io.sequential_accesses);
  EXPECT_EQ(sim.io.random_accesses, file.io.random_accesses);
  EXPECT_EQ(sim.io.simulated_micros, file.io.simulated_micros);
  // Every fault site passed through the same number of times: the file
  // paths check injection before touching the fd, exactly like the
  // in-memory paths.
  EXPECT_EQ(sim.fault_hits, file.fault_hits);
}

TEST(FileBackedTest, TornWalSyncSurvivesReopenFromDisk) {
  // Arm a torn log sync during the delete, then crash-reopen from disk: the
  // half-written frame must fail its CRC and recovery must still converge.
  std::string dir = FreshDir("bd_file_torn");
  DatabaseOptions options = FileOptions(dir);
  options.enable_recovery_log = true;
  auto injector = std::make_shared<FaultInjector>(7);
  options.fault_injector = injector;
  auto db = *Database::Create(options);
  Workload workload = LoadPaperWorkload(db.get());
  ASSERT_TRUE(db->Checkpoint().ok());

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.2, 3);
  injector->ResetCounts();
  injector->Arm(fault_sites::kLogSync, 3, FaultMode::kTornWrite);
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_FALSE(report.ok());  // the crash interrupted the statement
  ASSERT_TRUE(injector->tripped());

  injector->Disarm();
  ASSERT_TRUE(db->SimulateCrashAndRecover().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  // Recovery rolled the delete forward or dropped it whole; either way the
  // log drained and the tuple count is one of the two legal states.
  EXPECT_EQ(db->log().durable_size(), 0u);
  uint64_t tuples = db->GetTable("R")->table->tuple_count();
  EXPECT_TRUE(tuples == 1600u || tuples == 2000u) << tuples;
}

/// The "forget" fixture: USERS -> ORDERS -> EVENTS with cascading FKs.
/// User u owns orders {2u, 2u+1}; order o owns events {2o, 2o+1}.
constexpr int64_t kForgetUsers = 300;
const std::vector<std::string> kForgetTables = {"USERS", "ORDERS", "EVENTS"};

void LoadForgetFixture(Database* db) {
  Schema schema = *Schema::PaperStyle(3, 64);
  for (const std::string& t : kForgetTables) {
    EXPECT_TRUE(db->CreateTable(t, schema).ok());
    EXPECT_TRUE(db->CreateIndex(t, "A", {.unique = true}).ok());
  }
  EXPECT_TRUE(db->CreateIndex("ORDERS", "B").ok());
  EXPECT_TRUE(db->CreateIndex("EVENTS", "B").ok());
  for (int64_t u = 0; u < kForgetUsers; ++u) {
    EXPECT_TRUE(db->InsertRow("USERS", {u, u * 3 + 1, u * 7}).ok());
    for (int64_t o = 2 * u; o < 2 * u + 2; ++o) {
      EXPECT_TRUE(db->InsertRow("ORDERS", {o, u, o * 5}).ok());
      for (int64_t e = 2 * o; e < 2 * o + 2; ++e) {
        EXPECT_TRUE(db->InsertRow("EVENTS", {e, o, e * 11}).ok());
      }
    }
  }
  EXPECT_TRUE(
      db->AddForeignKey("ORDERS", "B", "USERS", "A", FkAction::kCascade).ok());
  EXPECT_TRUE(
      db->AddForeignKey("EVENTS", "B", "ORDERS", "A", FkAction::kCascade)
          .ok());
  EXPECT_TRUE(db->Checkpoint().ok());
}

/// Forgets every 4th user, starting at `first`: 75 users, 150 orders and
/// 300 events.
BulkDeleteSpec ForgetEveryFourthUser(int64_t first = 0) {
  BulkDeleteSpec bd;
  bd.table = "USERS";
  bd.key_column = "A";
  for (int64_t u = first; u < kForgetUsers; u += 4) bd.keys.push_back(u);
  return bd;
}

/// WAL and pool counters of one forget on the file backend at `budget`,
/// plus each table's logical content hash afterwards.
struct CascadeForgetRun {
  int64_t wal_fsyncs = 0;
  int64_t page_fsyncs = 0;  // disk.syncs: one per durability barrier
  int64_t forced_writebacks = 0;
  int64_t evictions = 0;
  std::vector<std::string> hashes;
};

CascadeForgetRun RunCascadeForget(const std::string& dir, size_t budget) {
  CascadeForgetRun out;
  DatabaseOptions options = FileOptions(FreshDir(dir));
  options.memory_budget_bytes = budget;
  options.enable_recovery_log = true;
  auto db = *Database::Create(options);
  LoadForgetFixture(db.get());

  obs::MetricsSnapshot before = db->metrics().Snapshot();
  db->pool().ResetStats();
  auto report = db->BulkDelete(ForgetEveryFourthUser(),
                               Strategy::kVerticalSortMerge);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  obs::MetricsSnapshot after = db->metrics().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterOr(name) - before.CounterOr(name);
  };
  out.wal_fsyncs = delta(obs::metric_names::kWalFsyncs);
  out.page_fsyncs = delta(obs::metric_names::kDiskSyncs);
  out.forced_writebacks = delta(obs::metric_names::kBpWalForcedWritebacks);
  out.evictions = db->pool().stats().evictions;
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  for (const std::string& t : kForgetTables) {
    out.hashes.push_back(*LogicalContentHash(db.get(), t));
  }
  return out;
}

// A forget over CASCADE is one statement: its three tables are legs of one
// WAL envelope with one durability barrier per level — the key-index
// passes, the table passes and finalize — so the page file is fsynced at
// most three times, and every record the statement logs carries one bd_id.
TEST(FileBackedTest, CascadeForgetIsOneEnvelopeWithOneBarrierPerLevel) {
  DatabaseOptions options = FileOptions(FreshDir("bd_forget_envelope"));
  options.enable_recovery_log = true;
  auto injector = std::make_shared<FaultInjector>();
  options.fault_injector = injector;
  auto db = *Database::Create(options);
  LoadForgetFixture(db.get());

  // Uninterrupted: three barriers, each its own phase.
  auto report = db->BulkDelete(ForgetEveryFourthUser(),
                               Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, 75u);
  EXPECT_EQ(report->cascaded_rows, 450u);
  EXPECT_LE(report->metrics.CounterOr(obs::metric_names::kDiskSyncs), 3)
      << report->ToString();
  EXPECT_LE(report->metrics.CounterOr(obs::metric_names::kWalFsyncs), 12)
      << report->ToString();
  std::set<std::string> phases;
  for (const PhaseStats& p : report->phases) phases.insert(p.name);
  for (const char* name : {"barrier:keys", "barrier:tables", "finalize"}) {
    EXPECT_EQ(phases.count(name), 1u) << name << "\n" << report->ToString();
  }

  // The next forget crashes just before its End record: the durable log
  // holds the whole statement under one bd_id, one kBegin per table.
  injector->ResetCounts();
  injector->Arm(fault_sites::kExecFinalizePreEnd, 1);
  EXPECT_FALSE(
      db->BulkDelete(ForgetEveryFourthUser(1), Strategy::kVerticalSortMerge)
          .ok());
  ASSERT_TRUE(injector->tripped());
  std::set<uint64_t> bd_ids;
  std::vector<std::string> begun;
  ASSERT_TRUE(db->log()
                  .ScanDurable([&](const LogRecord& r) {
                    bd_ids.insert(r.bd_id);
                    if (r.type == LogRecordType::kBegin) {
                      begun.push_back(r.label);
                    }
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(bd_ids.size(), 1u);
  EXPECT_EQ(begun, (std::vector<std::string>{"EVENTS", "ORDERS", "USERS"}));

  // Recovery finishes the whole forget on every table.
  injector->Disarm();
  ASSERT_TRUE(db->SimulateCrashAndRecover().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(db->GetTable("USERS")->table->tuple_count(), 150u);
  EXPECT_EQ(db->GetTable("ORDERS")->table->tuple_count(), 300u);
  EXPECT_EQ(db->GetTable("EVENTS")->table->tuple_count(), 600u);
  EXPECT_EQ(db->log().durable_size(), 0u);
}

// The WAL rule forces the log only as far as an evicted page's records, not
// on every dirty write-back. The same cascade forget runs with a pool that
// holds everything (1 MB: no evictions, every write-back is a FlushAll
// barrier) and with one that evicts constantly (32 KB, 8 frames). A log sync
// per dirty eviction would add one WAL fsync per eviction; under the rule a
// victim forces the log only when it was dirtied after the last log flush.
// Every leaf an index pass dirties carries a record appended just before, so
// such a pass forces about one sync per pool's worth of evictions. A table
// pass appends no record per row: its heap pages carry the stamp of a record
// the last barrier made durable, or of an earlier leg's feed list. Nothing
// else may add a sync under pressure.
TEST(FileBackedTest, EvictionPressureDoesNotForceALogSyncPerWriteback) {
  constexpr size_t kTightBudget = 32u << 10;
  CascadeForgetRun roomy = RunCascadeForget("wal_rule_1m", 1u << 20);
  CascadeForgetRun tight = RunCascadeForget("wal_rule_32k", kTightBudget);
  EXPECT_EQ(tight.hashes, roomy.hashes);
  EXPECT_EQ(roomy.evictions, 0);
  EXPECT_EQ(tight.page_fsyncs, roomy.page_fsyncs);
  EXPECT_GT(tight.evictions, 5 * tight.page_fsyncs) << "too little pressure";
  // bp.wal_forced_writebacks shows the rule at work: evictions forced some
  // flushes, each forced write-back is one WAL flush, and they account for
  // every WAL fsync the pressure added.
  EXPECT_GT(tight.forced_writebacks, roomy.forced_writebacks);
  EXPECT_LE(tight.forced_writebacks, tight.wal_fsyncs);
  EXPECT_EQ(tight.wal_fsyncs - roomy.wal_fsyncs,
            tight.forced_writebacks - roomy.forced_writebacks)
      << "tight " << tight.wal_fsyncs << " vs roomy " << roomy.wal_fsyncs
      << " WAL fsyncs";
  const int64_t pools_evicted =
      tight.evictions / static_cast<int64_t>(kTightBudget / kPageSize);
  EXPECT_LE(tight.wal_fsyncs - roomy.wal_fsyncs, pools_evicted)
      << "tight " << tight.wal_fsyncs << " vs roomy " << roomy.wal_fsyncs
      << " WAL fsyncs over " << tight.evictions << " evictions";
}

}  // namespace
}  // namespace bulkdel
