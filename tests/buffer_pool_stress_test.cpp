// Multi-threaded buffer-pool stress (pin/unpin/dirty/evict across shards;
// the tier-1 build runs it under ASan/UBSan, the tsan job under TSan), plus
// the I/O-identity acceptance test: simulated DiskStats totals must be
// unchanged by shard count, serial and parallel, and coalesced write-behind
// must batch adjacent dirty evictions when (and only when) enabled.

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
// Raw-pool stress across shards
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, ConcurrentPinDirtyEvictAcrossShards) {
  DiskManager disk;
  BufferPoolOptions options;
  // 64 frames over 4 shards, 4 threads x 64 private pages: every thread
  // misses constantly and evictions (including dirty write-backs) happen on
  // every shard while the others are fetching.
  options.budget_bytes = 64 * kPageSize;
  options.shards = 4;
  BufferPool pool(&disk, options);

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
  BufferPoolOptions options;
  options.budget_bytes = 128 * kPageSize;
  options.shards = 4;
  BufferPool pool(&disk, options);

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
// Coalesced write-behind
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, CoalescedWritebackBatchesAdjacentDirtyEvictions) {
  for (bool coalesce : {false, true}) {
    DiskManager disk;
    BufferPoolOptions options;
    options.budget_bytes = 16 * kPageSize;
    options.shards = 1;
    options.coalesce_writebacks = coalesce;
    BufferPool pool(&disk, options);

    // Fill the pool with 16 adjacent dirty pages, then fault in fresh ones:
    // each eviction finds a run of dirty neighbors in the same shard.
    std::vector<PageId> first_wave;
    for (int i = 0; i < 16; ++i) {
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      guard->data()[0] = static_cast<char>(i);
      guard->MarkDirty();
      first_wave.push_back(guard->page_id());
    }
    for (int i = 0; i < 16; ++i) {
      auto guard = pool.NewPage();
      ASSERT_TRUE(guard.ok());
      guard->MarkDirty();
    }
    BufferPoolStats stats = pool.stats();
    if (coalesce) {
      EXPECT_GT(stats.coalesced_writebacks, 0);
    } else {
      EXPECT_EQ(stats.coalesced_writebacks, 0);
    }
    // Either way every first-wave page must read back intact.
    for (int i = 0; i < 16; ++i) {
      auto guard = pool.FetchPage(first_wave[i]);
      ASSERT_TRUE(guard.ok());
      EXPECT_EQ(guard->data()[0], static_cast<char>(i));
    }
  }
}

// ---------------------------------------------------------------------------
// I/O identity across shard counts
// ---------------------------------------------------------------------------

struct IdentityRun {
  BulkDeleteReport report;
  IoStats disk_total;
};

IdentityRun RunWorkload(size_t pool_shards, int exec_threads,
                        size_t memory_budget) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory_budget;
  options.exec_threads = exec_threads;
  options.pool_shards = pool_shards;
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

  IoStats before = db->disk().stats();
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  // Every page access of the statement is charged to one of its accounts,
  // so the whole-disk delta is exactly the report's total.
  IoStats delta = db->disk().stats() - before;
  EXPECT_TRUE(db->VerifyIntegrity().ok());

  IdentityRun run;
  if (report.ok()) {
    run.report = *report;
    const std::string label = "threads " + std::to_string(exec_threads);
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

void ExpectIoIdentical(const IdentityRun& a, const IdentityRun& b,
                       const std::string& label) {
  EXPECT_EQ(a.report.io.reads, b.report.io.reads) << label;
  EXPECT_EQ(a.report.io.writes, b.report.io.writes) << label;
  EXPECT_EQ(a.report.io.sequential_accesses, b.report.io.sequential_accesses)
      << label;
  EXPECT_EQ(a.report.io.random_accesses, b.report.io.random_accesses) << label;
  EXPECT_EQ(a.report.io.simulated_micros, b.report.io.simulated_micros)
      << label;
  ASSERT_EQ(a.report.phases.size(), b.report.phases.size()) << label;
  for (size_t i = 0; i < a.report.phases.size(); ++i) {
    // Phases are recorded in completion order, which is schedule-dependent
    // under exec_threads > 1 — match by name.
    const PhaseStats& p = a.report.phases[i];
    const PhaseStats* found = nullptr;
    for (const PhaseStats& candidate : b.report.phases) {
      if (candidate.name == p.name) {
        found = &candidate;
        break;
      }
    }
    ASSERT_NE(found, nullptr) << label << " phase " << p.name << " missing";
    const PhaseStats& q = *found;
    EXPECT_EQ(p.io.reads, q.io.reads) << label << " phase " << p.name;
    EXPECT_EQ(p.io.writes, q.io.writes) << label << " phase " << p.name;
    EXPECT_EQ(p.io.sequential_accesses, q.io.sequential_accesses)
        << label << " phase " << p.name;
    EXPECT_EQ(p.io.random_accesses, q.io.random_accesses)
        << label << " phase " << p.name;
    EXPECT_EQ(p.io.simulated_micros, q.io.simulated_micros)
        << label << " phase " << p.name;
  }
}

TEST(IoIdentityTest, ShardCountDoesNotChangeSimulatedIo) {
  // Generous budget: the working set stays resident, so residency (and
  // therefore every simulated charge) cannot depend on how frames are
  // distributed over shards. This is the same precondition the parallel
  // scheduler's cross-thread identity test relies on.
  constexpr size_t kResident = 16ull << 20;
  for (int threads : {1, 4}) {
    IdentityRun one = RunWorkload(1, threads, kResident);
    IdentityRun eight = RunWorkload(8, threads, kResident);
    ExpectIoIdentical(one, eight,
                      "shards 1 vs 8, threads " + std::to_string(threads));
    EXPECT_EQ(one.disk_total.reads, eight.disk_total.reads);
    EXPECT_EQ(one.disk_total.writes, eight.disk_total.writes);
    EXPECT_EQ(one.disk_total.simulated_micros,
              eight.disk_total.simulated_micros);
  }
  // The effective shard count is visible in the report's per-shard stats.
  IdentityRun eight = RunWorkload(8, 1, kResident);
  EXPECT_EQ(eight.report.pool_shards.size(), 8u);
  EXPECT_GT(eight.report.pool.hits, 0);
}

// ---------------------------------------------------------------------------
// Cross-shard maintenance under live parallel phases
// ---------------------------------------------------------------------------

TEST(BufferPoolStressTest, ConcurrentFlushDuringParallelPhasesIsSafe) {
  // A phase-begin hook runs FlushAll from a worker thread while sibling
  // phases are fetching and dirtying pages — the cross-shard sweep must
  // coordinate with per-shard traffic (this is the TSan-checked seam), and
  // a concurrent Reset must either succeed (flush-then-drop, losing nothing)
  // or refuse cleanly because pages are pinned; both leave the database
  // consistent.
  std::unique_ptr<Database> db;
  std::atomic<int> flushes{0};

  DatabaseOptions options;
  options.memory_budget_bytes = 8ull << 20;
  options.exec_threads = 4;
  options.pool_shards = 8;
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
