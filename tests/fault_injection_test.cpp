// Deterministic fault injection (docs/FAULTS.md): the injector's
// arm/fire/trip lifecycle, partial-write modes on the disk and log paths,
// and the crash-recovery sweep — every enumerable site, every vertical
// strategy, serial and parallel execution.

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "fault/crash_sweep.h"
#include "fault/fault_injector.h"
#include "plan/plan.h"
#include "recovery/log_manager.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace bulkdel {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector lifecycle
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, FiresAtExactOccurrenceThenStaysTripped) {
  FaultInjector injector;
  injector.Arm(fault_sites::kDiskRead, 3);
  EXPECT_TRUE(injector.Check(fault_sites::kDiskRead).ok());
  EXPECT_TRUE(injector.Check(fault_sites::kDiskRead).ok());
  Status s = injector.Check(fault_sites::kDiskRead);
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_TRUE(injector.tripped());
  // A dead process performs no operation at any site.
  EXPECT_TRUE(injector.Check(fault_sites::kDiskWrite).IsAborted());
  EXPECT_TRUE(injector.Check(fault_sites::kLogSync).IsAborted());
  EXPECT_TRUE(injector.Check(fault_sites::kDiskRead).IsAborted());
}

TEST(FaultInjectorTest, OtherSitesDoNotAdvanceTheArmedCount) {
  FaultInjector injector;
  injector.Arm(fault_sites::kPoolFlush, 2);
  EXPECT_TRUE(injector.Check(fault_sites::kPoolEvict).ok());
  EXPECT_TRUE(injector.Check(fault_sites::kPoolEvict).ok());
  EXPECT_TRUE(injector.Check(fault_sites::kPoolFlush).ok());
  EXPECT_TRUE(injector.Check(fault_sites::kPoolFlush).IsAborted());
  EXPECT_EQ(injector.HitCount(fault_sites::kPoolEvict), 2u);
  EXPECT_EQ(injector.HitCount(fault_sites::kPoolFlush), 2u);
}

TEST(FaultInjectorTest, DisarmRevivesButKeepsCounts) {
  FaultInjector injector;
  injector.Arm(fault_sites::kDiskRead, 1);
  EXPECT_TRUE(injector.Check(fault_sites::kDiskRead).IsAborted());
  EXPECT_TRUE(injector.tripped());
  injector.Disarm();
  EXPECT_FALSE(injector.tripped());
  EXPECT_TRUE(injector.Check(fault_sites::kDiskRead).ok());
  EXPECT_EQ(injector.HitCount(fault_sites::kDiskRead), 2u);
  injector.ResetCounts();
  EXPECT_EQ(injector.HitCount(fault_sites::kDiskRead), 0u);
}

TEST(FaultInjectorTest, TripDescriptionNamesTheExactCase) {
  FaultInjector injector;
  injector.Arm(fault_sites::kExecCheckpoint, 2);
  EXPECT_TRUE(injector.Check(fault_sites::kExecCheckpoint, "index:R.B").ok());
  Status s = injector.Check(fault_sites::kExecCheckpoint, "index:R.C");
  EXPECT_TRUE(s.IsAborted());
  std::string desc = injector.trip_description();
  EXPECT_NE(desc.find("exec.checkpoint"), std::string::npos) << desc;
  EXPECT_NE(desc.find("occurrence=2"), std::string::npos) << desc;
  EXPECT_NE(desc.find("index:R.C"), std::string::npos) << desc;
  // The error of every later operation carries the original crash identity.
  EXPECT_NE(injector.TrippedError().ToString().find("occurrence=2"),
            std::string::npos);
}

TEST(FaultInjectorTest, DetailQualifiedArmCountsOnlyMatchingHits) {
  FaultInjector injector;
  injector.Arm(fault_sites::kSchedPhaseStart, 2, FaultMode::kCrash, "table");
  EXPECT_TRUE(injector.Check(fault_sites::kSchedPhaseStart, "sort-keys").ok());
  EXPECT_TRUE(injector.Check(fault_sites::kSchedPhaseStart, "index:R.A").ok());
  EXPECT_TRUE(injector.Check(fault_sites::kSchedPhaseStart, "table").ok());
  // Other details never advance the armed occurrence...
  EXPECT_TRUE(injector.Check(fault_sites::kSchedPhaseStart, "index:R.B").ok());
  EXPECT_TRUE(injector.Check(fault_sites::kSchedPhaseStart).ok());
  EXPECT_FALSE(injector.tripped());
  // ...but the per-site count, which numbers the sweep's cases, sees them all.
  EXPECT_EQ(injector.HitCount(fault_sites::kSchedPhaseStart), 5u);
  Status s = injector.Check(fault_sites::kSchedPhaseStart, "table");
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_EQ(injector.HitCount(fault_sites::kSchedPhaseStart), 6u);
  std::string desc = injector.trip_description();
  EXPECT_NE(desc.find("sched.phase_start"), std::string::npos) << desc;
  EXPECT_NE(desc.find("at=table"), std::string::npos) << desc;
  // Disarm drops the detail: a plain re-arm counts every hit again.
  injector.Disarm();
  injector.Arm(fault_sites::kSchedPhaseStart, 7);
  EXPECT_TRUE(
      injector.Check(fault_sites::kSchedPhaseStart, "index:R.B").IsAborted());
}

TEST(FaultInjectorTest, NonWriteSiteTreatsTornModeAsCrash) {
  FaultInjector injector;
  injector.Arm(fault_sites::kPoolFlush, 1, FaultMode::kTornWrite);
  // Check (no Hit out-param) cannot apply a partial effect: fail outright.
  EXPECT_TRUE(injector.Check(fault_sites::kPoolFlush).IsAborted());
  EXPECT_TRUE(injector.tripped());
}

TEST(FaultInjectorTest, CheckWriteReportsTheHitForPartialModes) {
  FaultInjector injector(99);
  injector.Arm(fault_sites::kDiskWrite, 1, FaultMode::kShortWrite);
  FaultInjector::Hit hit;
  Status s = injector.CheckWrite(fault_sites::kDiskWrite, &hit);
  // The caller gets OK + fire so it can apply the partial write first.
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(hit.fire);
  EXPECT_EQ(hit.mode, FaultMode::kShortWrite);
  EXPECT_TRUE(injector.tripped());
  EXPECT_TRUE(injector.CheckWrite(fault_sites::kDiskWrite, &hit).IsAborted());
}

TEST(FaultInjectorTest, KnownSitesAreStableAndQueryable) {
  const auto& sites = FaultInjector::KnownSites();
  EXPECT_EQ(sites.size(), 17u);
  for (const FaultSiteInfo& site : sites) {
    EXPECT_TRUE(FaultInjector::IsKnownSite(site.name)) << site.name;
  }
  EXPECT_FALSE(FaultInjector::IsKnownSite("no.such.site"));
  EXPECT_TRUE(FaultInjector::IsKnownSite(fault_sites::kExecFinalizePreEnd));
}

TEST(FaultSiteCatalog, VerticalPlanExplainListsTheSites) {
  BulkDeletePlan plan;
  plan.strategy = Strategy::kVerticalHash;
  std::string text = plan.Explain();
  EXPECT_NE(text.find("fault sites:"), std::string::npos) << text;
  EXPECT_NE(text.find("exec.finalize"), std::string::npos) << text;
  EXPECT_NE(text.find("disk.write*"), std::string::npos) << text;
  BulkDeletePlan traditional;
  traditional.strategy = Strategy::kTraditional;
  EXPECT_EQ(traditional.Explain().find("fault sites:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DiskManager: torn and short page writes, idempotent free
// ---------------------------------------------------------------------------

TEST(DiskManagerFaultTest, TornWriteLeavesHalfOldHalfNew) {
  FaultInjector injector(5);
  DiskManager disk;
  disk.SetFaultInjector(&injector);
  PageId page = *disk.AllocatePage();
  std::string old_bytes(kPageSize, 'A');
  ASSERT_TRUE(disk.WritePage(page, old_bytes.data()).ok());

  injector.ResetCounts();  // the baseline write above was hit #1
  injector.Arm(fault_sites::kDiskWrite, 1, FaultMode::kTornWrite);
  std::string new_bytes(kPageSize, 'B');
  EXPECT_TRUE(disk.WritePage(page, new_bytes.data()).IsAborted());
  EXPECT_TRUE(injector.tripped());
  // The dead process cannot even read its disk back.
  std::string out(kPageSize, 'x');
  EXPECT_TRUE(disk.ReadPage(page, out.data()).IsAborted());

  injector.Disarm();
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  for (size_t i = 0; i < kPageSize; ++i) {
    EXPECT_EQ(out[i], i < kPageSize / 2 ? 'B' : 'A') << "byte " << i;
  }
}

TEST(DiskManagerFaultTest, ShortWriteLeavesAPrefixOfNewBytes) {
  FaultInjector injector(17);
  DiskManager disk;
  disk.SetFaultInjector(&injector);
  PageId page = *disk.AllocatePage();
  std::string old_bytes(kPageSize, 'A');
  ASSERT_TRUE(disk.WritePage(page, old_bytes.data()).ok());

  injector.ResetCounts();  // the baseline write above was hit #1
  injector.Arm(fault_sites::kDiskWrite, 1, FaultMode::kShortWrite);
  std::string new_bytes(kPageSize, 'B');
  EXPECT_TRUE(disk.WritePage(page, new_bytes.data()).IsAborted());
  injector.Disarm();

  std::string out(kPageSize, 'x');
  ASSERT_TRUE(disk.ReadPage(page, out.data()).ok());
  // Some prefix (possibly empty) is new, the rest is strictly old.
  size_t boundary = 0;
  while (boundary < kPageSize && out[boundary] == 'B') ++boundary;
  for (size_t i = boundary; i < kPageSize; ++i) {
    EXPECT_EQ(out[i], 'A') << "byte " << i;
  }
}

TEST(DiskManagerFaultTest, TrippedInjectorFreezesAllocationToo) {
  FaultInjector injector;
  DiskManager disk;
  disk.SetFaultInjector(&injector);
  PageId page = *disk.AllocatePage();
  injector.Arm(fault_sites::kDiskRead, 1);
  std::string out(kPageSize, 'x');
  EXPECT_TRUE(disk.ReadPage(page, out.data()).IsAborted());
  EXPECT_TRUE(disk.AllocatePage().status().IsAborted());
  EXPECT_TRUE(disk.FreePage(page).IsAborted());
}

TEST(BufferPoolFaultTest, CrashDiscardZeroesPoolStats) {
  // A simulated crash drops the pool's frames AND its counters: recovery
  // runs in a restarted process with cold caches, and carrying pre-crash
  // hit/miss numbers forward would double-count the crash sweep's per-run
  // I/O reporting.
  FaultInjector injector;
  DiskManager disk;
  disk.SetFaultInjector(&injector);
  BufferPool pool(&disk, 8 * kPageSize);
  pool.SetFaultInjector(&injector);
  std::vector<PageId> ids;
  for (int i = 0; i < 12; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
    ids.push_back(guard->page_id());
  }
  for (PageId id : ids) ASSERT_TRUE(pool.FetchPage(id).ok());
  BufferPoolStats before = pool.stats();
  EXPECT_GT(before.hits + before.misses, 0);
  EXPECT_GT(before.evictions, 0);

  pool.DiscardAllForCrashTest();
  BufferPoolStats after = pool.stats();
  EXPECT_EQ(after.hits, 0);
  EXPECT_EQ(after.misses, 0);
  EXPECT_EQ(after.evictions, 0);
  EXPECT_EQ(after.dirty_writebacks, 0);
  EXPECT_EQ(after.prefetched, 0);
  EXPECT_EQ(after.prefetch_hits, 0);
  EXPECT_EQ(after.coalesced_writebacks, 0);
  // And the frames really are gone: the next fetch misses.
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());
  EXPECT_EQ(pool.stats().misses, 1);
}

TEST(DiskManagerTest, FreePageIsIdempotent) {
  DiskManager disk;
  PageId first = *disk.AllocatePage();
  PageId second = *disk.AllocatePage();
  ASSERT_TRUE(disk.FreePage(first).ok());
  // A recovery re-run may re-free a page it already freed before the crash;
  // the duplicate must not enter the free list a second time.
  ASSERT_TRUE(disk.FreePage(first).ok());
  EXPECT_EQ(disk.NumFreePages(), 1u);
  PageId reused = *disk.AllocatePage();
  EXPECT_EQ(reused, first);
  PageId fresh = *disk.AllocatePage();
  EXPECT_NE(fresh, first);
  EXPECT_NE(fresh, second);
}

// ---------------------------------------------------------------------------
// LogManager: torn sync tails
// ---------------------------------------------------------------------------

TEST(LogManagerFaultTest, TornSyncKeepsAPrefixAndDetectsTheTail) {
  FaultInjector injector(7);
  LogManager log;
  log.SetFaultInjector(&injector);
  for (int i = 0; i < 8; ++i) {
    LogRecord r;
    r.type = LogRecordType::kEntryDeleted;
    r.bd_id = 1;
    r.key = i;
    log.Append(r);
  }
  injector.Arm(fault_sites::kLogSync, 1, FaultMode::kTornWrite);
  log.Sync();
  EXPECT_TRUE(injector.tripped());

  // The durable log holds only records whose frames passed the CRC check: a
  // strict prefix of the batch, intact and in append order. The torn frame's
  // bytes sit past the clean prefix as checksummed-out garbage, never as a
  // flagged record.
  auto records = log.DurableSnapshot();
  ASSERT_LT(records.size(), 8u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].key, static_cast<int64_t>(i));
  }

  // A dead process syncs nothing more.
  LogRecord late;
  late.type = LogRecordType::kEnd;
  late.bd_id = 1;
  log.Append(late);
  log.Sync();
  EXPECT_EQ(log.durable_size(), records.size());

  // Restart: DropTornTail truncates the garbage bytes after the last clean
  // frame; the decoded prefix is untouched.
  size_t dropped_bytes = log.DropTornTail();
  EXPECT_GT(dropped_bytes, 0u);
  EXPECT_EQ(log.durable_size(), records.size());
  EXPECT_EQ(log.DropTornTail(), 0u);  // idempotent
}

TEST(LogManagerFaultTest, CrashModeSyncLosesTheWholeBatch) {
  FaultInjector injector;
  LogManager log;
  log.SetFaultInjector(&injector);
  LogRecord r;
  r.type = LogRecordType::kBegin;
  r.bd_id = 1;
  log.Append(r);
  log.Sync();
  EXPECT_EQ(log.durable_size(), 1u);

  r.type = LogRecordType::kCommit;
  log.Append(r);
  // Counts are cumulative: the first Sync above already hit the site once.
  injector.ResetCounts();
  injector.Arm(fault_sites::kLogSync, 1);
  log.Sync();
  EXPECT_TRUE(injector.tripped());
  EXPECT_EQ(log.durable_size(), 1u);  // the commit batch evaporated
}

TEST(LogManagerTest, DropTornTailOnCleanLogIsANoop) {
  LogManager log;
  LogRecord r;
  r.type = LogRecordType::kBegin;
  r.bd_id = 1;
  log.Append(r);
  log.Sync();
  EXPECT_EQ(log.DropTornTail(), 0u);
  EXPECT_EQ(log.durable_size(), 1u);
}

// ---------------------------------------------------------------------------
// The crash-recovery sweep: every site x strategy x thread count
// ---------------------------------------------------------------------------

/// Occurrence budget per site. CI's fault-sweep job sets
/// BULKDEL_SWEEP_OCCURRENCES=0 for the exhaustive sweep; the local default
/// keeps the tier-1 run fast.
uint64_t SweepBudgetFromEnv() {
  const char* env = std::getenv("BULKDEL_SWEEP_OCCURRENCES");
  if (env == nullptr || *env == '\0') return 4;
  return std::strtoull(env, nullptr, 10);
}

class CrashSweepTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(CrashSweepTest, EverySiteRecoversToTheReferenceState) {
  SweepConfig config;
  config.strategies = {GetParam()};
  config.thread_counts = {1, 4};
  config.occurrences_per_site = SweepBudgetFromEnv();
  SweepStats stats;
  Status s = RunCrashSweep(config, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(stats.cases_run, 0u);
  std::string reports;
  for (const std::string& r : stats.failure_reports) reports += r + "\n";
  EXPECT_EQ(stats.failures, 0u) << reports;
}

/// The multi-table "forget user X" statement: USERS -> ORDERS -> EVENTS with
/// cascading FKs. A crash at any site must recover to an exact leg prefix
/// (S0 untouched .. S3 fully forgotten) across all three tables — never a
/// partially-applied leg or cross-table skew. Swept on both backends so the
/// file WAL's statement boundaries get the same scrutiny as the sim image.
TEST_P(CrashSweepTest, CascadeRecoversToALegPrefixOnBothBackends) {
  for (const char* backend : {"sim", "file"}) {
    SweepConfig config;
    config.cascade = true;
    config.backend = backend;
    config.scratch_dir = ::testing::TempDir() + "/bd_cascade_sweep";
    config.n_tuples = 700;  // 100 users -> 200 orders -> 400 events
    config.strategies = {GetParam()};
    config.thread_counts = {1};
    config.occurrences_per_site = SweepBudgetFromEnv();
    SweepStats stats;
    Status s = RunCrashSweep(config, &stats);
    ASSERT_TRUE(s.ok()) << backend << ": " << s.ToString();
    EXPECT_GT(stats.cases_run, 0u) << backend;
    std::string reports;
    for (const std::string& r : stats.failure_reports) reports += r + "\n";
    EXPECT_EQ(stats.failures, 0u) << backend << "\n" << reports;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Vertical, CrashSweepTest,
    ::testing::Values(Strategy::kVerticalSortMerge, Strategy::kVerticalHash,
                      Strategy::kVerticalPartitionedHash),
    [](const ::testing::TestParamInfo<Strategy>& info) {
      std::string name = StrategyName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The randomized driver draws its cases through the same runner as the
/// deterministic sweep, for both scenarios.
TEST(TortureSweepTest, RandomCasesRecoverOnBothScenarios) {
  for (bool cascade : {false, true}) {
    SweepConfig config;
    config.cascade = cascade;
    SweepStats stats;
    Status s = RunTortureSweep(config, /*seconds=*/1, /*seed=*/42, &stats);
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(stats.cases_run, 0u) << "cascade=" << cascade;
    std::string reports;
    for (const std::string& r : stats.failure_reports) reports += r + "\n";
    EXPECT_EQ(stats.failures, 0u) << "cascade=" << cascade << "\n" << reports;
  }
}

// ---------------------------------------------------------------------------
// §3.1 concurrent-updater crash coverage (docs/CONCURRENCY.md). CI's
// fault-sweep job runs the full exhaustive matrix through the standalone
// driver (--concurrency={sidefile,direct}); these tier-1 legs pin the two
// historically buggy windows deterministically.

class ConcurrencySweepTest
    : public ::testing::TestWithParam<ConcurrencyProtocol> {};

/// Regression: crashing at the BringOnline flip — after the side-file's
/// quiesced tail drain, or after direct propagation's marker-clearing pass —
/// must neither lose acknowledged updater DML nor leave stale
/// kEntryUndeletable markers behind (the recovered digest includes entry
/// flags, so a surviving marker is a hard mismatch).
TEST_P(ConcurrencySweepTest, OnlineFlipCrashKeepsAcknowledgedUpdaterWork) {
  SweepConfig config;
  config.concurrency = GetParam();
  config.strategies = {Strategy::kVerticalSortMerge};
  config.thread_counts = {1};
  config.only_site = "txn.online_flip";
  config.occurrences_per_site = 0;  // every flip of every off-line index
  SweepStats stats;
  Status s = RunCrashSweep(config, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(stats.cases_run, 0u);
  std::string reports;
  for (const std::string& r : stats.failure_reports) reports += r + "\n";
  EXPECT_EQ(stats.failures, 0u) << reports;
}

/// Sampled all-site sweep with updaters riding along, both exec_threads
/// values — the protocol machinery (WAL'd DML, spill pages, catch-up
/// batches) must recover at every crash point, not just the flip.
TEST_P(ConcurrencySweepTest, EverySiteRecoversWithUpdaters) {
  SweepConfig config;
  config.concurrency = GetParam();
  config.strategies = {Strategy::kVerticalSortMerge};
  config.thread_counts = {1, 4};
  config.occurrences_per_site = SweepBudgetFromEnv();
  SweepStats stats;
  Status s = RunCrashSweep(config, &stats);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(stats.cases_run, 0u);
  std::string reports;
  for (const std::string& r : stats.failure_reports) reports += r + "\n";
  EXPECT_EQ(stats.failures, 0u) << reports;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ConcurrencySweepTest,
    ::testing::Values(ConcurrencyProtocol::kSideFile,
                      ConcurrencyProtocol::kDirectPropagation),
    [](const ::testing::TestParamInfo<ConcurrencyProtocol>& info) {
      return info.param == ConcurrencyProtocol::kSideFile ? "sidefile"
                                                          : "direct";
    });

}  // namespace
}  // namespace bulkdel
