// Multi-threaded buffer-pool stress (pin/unpin/dirty/evict from several
// threads; the tier-1 build runs it under ASan/UBSan, the tsan job under
// TSan), plus the I/O-identity acceptance test: simulated DiskStats totals
// must be unchanged by the executor's thread count, and a dirty eviction
// must write its adjacent dirty neighbors in the same run.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "util/coding.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

// ---------------------------------------------------------------------------
// Raw-pool stress
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, ConcurrentPinDirtyEvict) {
  DiskManager disk;
  // 64 frames, 4 threads x 64 private pages: evictions (including dirty
  // write-backs) of one thread's pages happen while the others are fetching.
  BufferPool pool(&disk, 64 * kPageSize);

  constexpr int kThreads = 4;
  constexpr int kPagesPerThread = 64;
  constexpr int kRounds = 40;

  // Each thread owns a disjoint page set; increments to the owner's counter
  // word must survive any interleaving of evictions and flushes.
  std::vector<std::vector<PageId>> owned(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPagesPerThread; ++i) {
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      owned[t].push_back(guard->page_id());
      guard->MarkDirty();
    }
  }
  ASSERT_TRUE(pool.FlushAll().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (PageId page : owned[t]) {
          auto guard = pool.FetchPage(page);
          if (!guard.ok()) {
            ++failures;
            return;
          }
          uint32_t count = LoadU32(guard->data());
          StoreU32(guard->data(), count + 1);
          guard->MarkDirty();
        }
        if (round % 8 == t % 8 && !pool.FlushAll().ok()) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    for (PageId page : owned[t]) {
      auto guard = pool.FetchPage(page);
      ASSERT_TRUE(guard.ok());
      EXPECT_EQ(LoadU32(guard->data()), static_cast<uint32_t>(kRounds))
          << "page " << page << " lost updates";
    }
  }
  BufferPoolStats stats = pool.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_GT(stats.dirty_writebacks, 0);
}

TEST(BufferPoolStressTest, ConcurrentMissesOnSharedPages) {
  DiskManager disk;
  BufferPool pool(&disk, 128 * kPageSize);

  std::vector<PageId> pages;
  for (int i = 0; i < 256; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    StoreU32(guard->data(), static_cast<uint32_t>(i));
    guard->MarkDirty();
    pages.push_back(guard->page_id());
  }
  ASSERT_TRUE(pool.Reset().ok());

  // Two readers demand-fetch the same pages in opposite orders through a
  // pool half their size: they race to place and evict the same ids, and the
  // pool must never serve wrong contents or double-place a page.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < pages.size(); ++i) {
        size_t at = t == 0 ? i : pages.size() - 1 - i;
        auto guard = pool.FetchPage(pages[at]);
        if (!guard.ok() ||
            LoadU32(guard->data()) != static_cast<uint32_t>(at)) {
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// Write-back runs
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, CoalescedWritebackBatchesAdjacentDirtyEvictions) {
  DiskManager disk;
  BufferPool pool(&disk, 16 * kPageSize);

  // Fill the pool with 16 adjacent dirty pages, then fault in fresh ones.
  std::vector<PageId> first_wave;
  for (int i = 0; i < 16; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->data()[0] = static_cast<char>(i);
    guard->MarkDirty();
    first_wave.push_back(guard->page_id());
  }
  const int64_t writes = disk.stats().writes;
  {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  // The first eviction writes its victim and all 15 dirty neighbors in one
  // run; they stay resident, clean.
  BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.dirty_writebacks, 16);
  EXPECT_EQ(stats.coalesced_writebacks, 15);
  EXPECT_EQ(disk.stats().writes, writes + 16);
  // So the next 15 evictions find clean victims and write nothing.
  for (int i = 1; i < 16; ++i) {
    auto guard = pool.NewPage();
    ASSERT_TRUE(guard.ok());
    guard->MarkDirty();
  }
  stats = pool.stats();
  EXPECT_EQ(stats.evictions, 16);
  EXPECT_EQ(stats.dirty_writebacks, 16);
  EXPECT_EQ(stats.coalesced_writebacks, 15);
  // Every first-wave page reads back intact.
  for (int i = 0; i < 16; ++i) {
    auto guard = pool.FetchPage(first_wave[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->data()[0], static_cast<char>(i));
  }
}

// ---------------------------------------------------------------------------
// I/O identity across thread counts
// ---------------------------------------------------------------------------

struct IdentityRun {
  BulkDeleteReport report;
  IoStats disk_total;
};

IdentityRun RunWorkload(int exec_threads, Strategy strategy,
                        size_t memory_budget) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory_budget;
  options.exec_threads = exec_threads;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 20000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});
  // Start the measured statement from a cold cache: deterministic regardless
  // of how load-time evictions fell.
  EXPECT_TRUE(db->pool().Reset().ok());

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.15, 42);

  const std::string label = std::string(StrategyName(strategy)) +
                            ", threads " + std::to_string(exec_threads);
  IoStats before = db->disk().stats();
  auto report = db->BulkDelete(bd, strategy);
  EXPECT_TRUE(report.ok()) << label << ": " << report.status().ToString();
  // Every page access of the statement is charged to one of its accounts,
  // so the whole-disk delta is exactly the report's total.
  IoStats delta = db->disk().stats() - before;
  // The integrity check starts from a cold pool too: its misses would
  // otherwise depend on the LRU order the statement's concurrent passes
  // left behind.
  EXPECT_TRUE(db->pool().Reset().ok()) << label;
  EXPECT_TRUE(db->VerifyIntegrity().ok()) << label;

  IdentityRun run;
  if (report.ok()) {
    run.report = *report;
    EXPECT_EQ(delta.reads, report->io.reads) << label;
    EXPECT_EQ(delta.writes, report->io.writes) << label;
    EXPECT_EQ(delta.sequential_accesses, report->io.sequential_accesses)
        << label;
    EXPECT_EQ(delta.random_accesses, report->io.random_accesses) << label;
    EXPECT_EQ(delta.simulated_micros, report->io.simulated_micros) << label;
  }
  run.disk_total = db->disk().stats();
  return run;
}

const PhaseStats* FindPhase(const BulkDeleteReport& report,
                            const std::string& name) {
  for (const PhaseStats& p : report.phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void ExpectPhaseIoIdentical(const PhaseStats& p, const PhaseStats& q,
                            const std::string& label) {
  EXPECT_EQ(p.io.reads, q.io.reads) << label << " phase " << p.name;
  EXPECT_EQ(p.io.writes, q.io.writes) << label << " phase " << p.name;
  EXPECT_EQ(p.io.sequential_accesses, q.io.sequential_accesses)
      << label << " phase " << p.name;
  EXPECT_EQ(p.io.random_accesses, q.io.random_accesses)
      << label << " phase " << p.name;
  EXPECT_EQ(p.io.simulated_micros, q.io.simulated_micros)
      << label << " phase " << p.name;
}

// While concurrent phases evict only pages the earlier phases left, which
// pages are read and evicted is a function of the statement's page-access
// sequence through the one LRU. Which are written back is not: a write-back
// run cleans the victim's dirty neighbors, and a concurrent phase may dirty
// one of them again before or after the run.
void ExpectReadsIdentical(const IdentityRun& a, const IdentityRun& b,
                          const std::string& label) {
  EXPECT_EQ(a.report.io.reads, b.report.io.reads) << label;
  EXPECT_EQ(a.report.pool.misses, b.report.pool.misses) << label;
  EXPECT_EQ(a.report.pool.evictions, b.report.pool.evictions) << label;
  EXPECT_EQ(a.disk_total.reads, b.disk_total.reads) << label;
}

// Full identity: every charge of the statement, of each phase and of the
// whole disk.
void ExpectIoIdentical(const IdentityRun& a, const IdentityRun& b,
                       const std::string& label) {
  ExpectReadsIdentical(a, b, label);
  EXPECT_EQ(a.report.io.writes, b.report.io.writes) << label;
  EXPECT_EQ(a.report.pool.dirty_writebacks, b.report.pool.dirty_writebacks)
      << label;
  EXPECT_EQ(a.disk_total.writes, b.disk_total.writes) << label;
  EXPECT_EQ(a.report.io.sequential_accesses, b.report.io.sequential_accesses)
      << label;
  EXPECT_EQ(a.report.io.random_accesses, b.report.io.random_accesses) << label;
  EXPECT_EQ(a.report.io.simulated_micros, b.report.io.simulated_micros)
      << label;
  EXPECT_EQ(a.report.pool.coalesced_writebacks,
            b.report.pool.coalesced_writebacks)
      << label;
  EXPECT_EQ(a.disk_total.simulated_micros, b.disk_total.simulated_micros)
      << label;
  ASSERT_EQ(a.report.phases.size(), b.report.phases.size()) << label;
  for (const PhaseStats& p : a.report.phases) {
    // Phases are recorded in completion order, which is schedule-dependent
    // under exec_threads > 1 — match by name.
    const PhaseStats* q = FindPhase(b.report, p.name);
    ASSERT_NE(q, nullptr) << label << " phase " << p.name << " missing";
    ExpectPhaseIoIdentical(p, *q, label);
  }
}

// The working set (heap plus three indices, 561 pages) stays resident.
constexpr size_t kResidentBudget = 16ull << 20;
// 512 frames: every plan below evicts. The traditional and drop & create
// plans run one phase at a time. The vertical plan's secondary-index passes
// (index:R.B, index:R.C) run concurrently at 4 threads and evict pages the
// earlier phases left dirty.
constexpr size_t kEvictingBudget = 2ull << 20;
// What the vertical plan runs before its secondary passes fan out.
const char* const kVerticalSerialPhases[] = {"sort-keys", "index:R.A",
                                             "table"};

void ExpectThreadCountIdentity(size_t budget) {
  for (Strategy strategy : {Strategy::kVerticalSortMerge,
                            Strategy::kTraditionalSorted,
                            Strategy::kDropCreate}) {
    const std::string label = std::string(StrategyName(strategy)) +
                              ", budget " + std::to_string(budget) +
                              ": threads 1 vs 4";
    IdentityRun one = RunWorkload(1, strategy, budget);
    IdentityRun four = RunWorkload(4, strategy, budget);
    EXPECT_GT(one.report.pool.hits, 0) << label;
    const bool evicts = one.report.pool.evictions > 0;
    EXPECT_EQ(evicts, budget == kEvictingBudget) << label;
    if (!evicts || strategy != Strategy::kVerticalSortMerge) {
      ExpectIoIdentical(one, four, label);
      continue;
    }
    // Concurrent phases that evict: the victims are the same pages, but
    // which phase pays a dirty write-back (and so whether the write counts
    // as sequential or random against that phase's disk head), and which
    // dirty neighbors its run picks up, depend on the schedule.
    ExpectReadsIdentical(one, four, label);
    for (const char* name : kVerticalSerialPhases) {
      const PhaseStats* p = FindPhase(one.report, name);
      const PhaseStats* q = FindPhase(four.report, name);
      ASSERT_NE(p, nullptr) << label << " phase " << name;
      ASSERT_NE(q, nullptr) << label << " phase " << name;
      ExpectPhaseIoIdentical(*p, *q, label);
    }
  }
}

TEST(IoIdentityTest, ThreadCountDoesNotChangeSimulatedIoWhenResident) {
  ExpectThreadCountIdentity(kResidentBudget);
}

TEST(IoIdentityTest, ThreadCountDoesNotChangeSimulatedIoWhenEvicting) {
  ExpectThreadCountIdentity(kEvictingBudget);
}

// ---------------------------------------------------------------------------
// Pool-wide maintenance under live parallel phases
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, ConcurrentFlushDuringParallelPhasesIsSafe) {
  // A phase-begin hook runs FlushAll from a worker thread while sibling
  // phases are fetching and dirtying pages — the sweep must coordinate with
  // their fetch traffic (this is the TSan-checked seam), and
  // a concurrent Reset must either succeed (flush-then-drop, losing nothing)
  // or refuse cleanly because pages are pinned; both leave the database
  // consistent.
  std::unique_ptr<Database> db;
  std::atomic<int> flushes{0};

  DatabaseOptions options;
  options.memory_budget_bytes = 8ull << 20;
  options.exec_threads = 4;
  // The hook only fires on phase threads while a bulk delete is executing,
  // well after `db` is assigned below, so capturing it by reference is safe.
  options.phase_begin_hook = [&](const std::string& phase) {
    if (phase == "index:R.B") {
      Status s = db->pool().FlushAll();
      EXPECT_TRUE(s.ok()) << s.ToString();
      ++flushes;
    } else if (phase == "index:R.C") {
      Status s = db->pool().Reset();
      // Sibling phases usually hold pins, so Reset may refuse — but it must
      // refuse cleanly, never drop an unflushed update.
      if (!s.ok()) {
        EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s.ToString();
      }
    }
  };
  db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 20000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});
  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.15, 42);
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(flushes.load(), 1);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
}

}  // namespace
}  // namespace bulkdel
