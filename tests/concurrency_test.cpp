// §3.1 protocols: concurrent updater transactions during a bulk delete,
// under both the side-file and the direct-propagation protocol. Updaters
// block on the table lock until the commit point, then run against off-line
// secondary indices; the final state must be exactly "bulk delete applied,
// then all updater operations applied".

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "core/database.h"
#include "fault/crash_sweep.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

struct ConcurrencyParam {
  ConcurrencyProtocol protocol;
  const char* name;
};

std::string ParamName(const ::testing::TestParamInfo<ConcurrencyParam>& info) {
  return info.param.name;
}

class ConcurrencyTest : public ::testing::TestWithParam<ConcurrencyParam> {};

TEST_P(ConcurrencyTest, UpdatersDuringBulkDelete) {
  DatabaseOptions options;
  options.memory_budget_bytes = 512 * 1024;
  options.concurrency = GetParam().protocol;
  options.bulk_chunk_entries = 64;  // many latch windows for interleaving
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 4000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.25, 99);
  std::set<int64_t> doomed(bd.keys.begin(), bd.keys.end());

  // Updater threads insert fresh rows (values far outside the generated
  // range) and delete some of them again. They start before the bulk delete
  // commits, so they exercise the lock wait + off-line index paths.
  constexpr int kUpdaters = 4;
  constexpr int kOpsPerUpdater = 150;
  std::atomic<int> inserted_live{0};
  std::atomic<bool> updater_failed{false};
  std::vector<std::thread> updaters;
  updaters.reserve(kUpdaters);
  for (int u = 0; u < kUpdaters; ++u) {
    updaters.emplace_back([&, u] {
      for (int i = 0; i < kOpsPerUpdater; ++i) {
        int64_t base = 10000000000LL + u * 1000000 + i;
        auto rid = db->InsertRow("R", {base, base + 1, base + 2});
        if (!rid.ok()) {
          updater_failed = true;
          return;
        }
        if (i % 3 == 0) {
          if (!db->DeleteRow("R", *rid).ok()) {
            updater_failed = true;
            return;
          }
        } else {
          ++inserted_live;
        }
      }
    });
  }

  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  for (std::thread& t : updaters) t.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(updater_failed);
  EXPECT_EQ(report->rows_deleted, bd.keys.size());

  // All indices back on-line.
  for (auto& index : db->GetTable("R")->indices) {
    EXPECT_EQ(index->cc->mode.load(), IndexMode::kOnline) << index->name;
  }

  // Final state: original rows minus doomed, plus surviving updater rows.
  TableDef* table = db->GetTable("R");
  EXPECT_EQ(table->table->tuple_count(),
            spec.n_tuples - doomed.size() +
                static_cast<uint64_t>(inserted_live.load()));
  ASSERT_TRUE(table->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    int64_t a = table->schema->GetInt(tuple, 0);
                    EXPECT_EQ(doomed.count(a), 0u);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST_P(ConcurrencyTest, UpdaterRowsWithDoomedRidsSurvive) {
  // The §3.1.2 race: an updater inserts a row whose RID was just freed by
  // the bulk delete; the index entry must not be removed by the still-running
  // bulk deleter (undeletable marker / side-file ordering).
  DatabaseOptions options;
  options.memory_budget_bytes = 512 * 1024;
  options.concurrency = GetParam().protocol;
  options.bulk_chunk_entries = 16;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 2000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.5, 7);

  std::atomic<bool> stop{false};
  std::atomic<bool> updater_failed{false};
  std::atomic<int> inserted{0};
  // Insert aggressively so freed slots (and thus RIDs from the delete set)
  // are re-used while the bulk delete still processes secondary indices.
  std::thread updater([&] {
    int64_t next = 20000000000LL;
    while (!stop.load()) {
      auto rid = db->InsertRow("R", {next, next + 1, next + 2});
      if (!rid.ok()) {
        updater_failed = true;
        return;
      }
      ++inserted;
      ++next;
    }
  });

  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  stop = true;
  updater.join();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(updater_failed);
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(),
            spec.n_tuples - bd.keys.size() +
                static_cast<uint64_t>(inserted.load()));
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST_P(ConcurrencyTest, ReadersBlockedUntilCommitPoint) {
  DatabaseOptions options;
  options.memory_budget_bytes = 512 * 1024;
  options.concurrency = GetParam().protocol;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 3000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B", "C"});

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(0.3, 5);
  std::set<int64_t> doomed(bd.keys.begin(), bd.keys.end());

  // A reader that repeatedly reads one surviving row: it must never observe
  // a torn state (GetRow either blocks or sees the row).
  Rid victim_rid;
  int64_t victim_a = 0;
  for (size_t i = 0; i < workload.rids.size(); ++i) {
    if (doomed.count(workload.values[0][i]) == 0) {
      victim_rid = workload.rids[i];
      victim_a = workload.values[0][i];
      break;
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_failed{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto row = db->GetRow("R", victim_rid);
      if (!row.ok() || (*row)[0] != victim_a) {
        reader_failed = true;
        return;
      }
    }
  });

  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  stop = true;
  reader.join();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(reader_failed);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

// An updater insert that lands, after commit, in the heap slot a deleted
// row freed, with that row's B, while the pass over index R.B has not run:
// the row's old (B, RID) entry is still in the off-line index, and the
// insert must leave exactly one entry for the new row.
TEST_P(ConcurrencyTest, InsertReusingAFreedSlotWithTheSameKeyKeepsItsEntry) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  options.concurrency = GetParam().protocol;
  Database* raw = nullptr;
  Rid inserted;
  options.phase_begin_hook = [&](const std::string& phase) {
    if (phase != "index:R.B") return;
    auto rid = raw->InsertRow("R", {100, 0});
    ASSERT_TRUE(rid.ok()) << rid.status().ToString();
    inserted = *rid;
  };
  auto db = *Database::Create(options);
  raw = db.get();
  ASSERT_TRUE(db->CreateTable("R", *Schema::PaperStyle(2, 64)).ok());
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("R", "B").ok());
  for (int64_t a = 0; a < 20; ++a) {
    ASSERT_TRUE(db->InsertRow("R", {a, 0}).ok());
  }
  auto doomed = db->GetIndex("R", "A")->tree->Search(7);
  ASSERT_TRUE(doomed.ok());
  ASSERT_EQ(doomed->size(), 1u);

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = {7};
  auto report = db->BulkDelete(bd, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(inserted.valid()) << "the hook never ran";
  EXPECT_EQ(inserted, doomed->front()) << "the insert did not reuse the slot";
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 20u);
  auto entries = db->GetIndex("R", "B")->tree->Search(0);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 20u);
  EXPECT_EQ(std::count(entries->begin(), entries->end(), inserted), 1);
  Status integrity = db->VerifyIntegrity();
  EXPECT_TRUE(integrity.ok()) << integrity.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, ConcurrencyTest,
    ::testing::Values(
        ConcurrencyParam{ConcurrencyProtocol::kSideFile, "SideFile"},
        ConcurrencyParam{ConcurrencyProtocol::kDirectPropagation,
                         "DirectPropagation"}),
    ParamName);

// A statement's finalize flush and a checkpoint sweep the whole pool, so
// they must hold off DML on every table, not only on the one they lock: the
// record-at-a-time and drop & create plans and checkpoints run on table A
// while an updater inserts and deletes rows of table B. Under
// ThreadSanitizer an unlatched flush is a data race on B's pages and metas;
// in any build, B on disk must hold exactly the acknowledged ops.
TEST(FlushLatchTest, StatementsAndCheckpointsOnATableBesideDmlOnAnother) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto make_table = [](Database* db, const char* name) {
    ASSERT_TRUE(db->CreateTable(name, *Schema::PaperStyle(3, 64)).ok());
    ASSERT_TRUE(db->CreateIndex(name, "A", {.unique = true}).ok());
    ASSERT_TRUE(db->CreateIndex(name, "B").ok());
  };
  auto row = [](int64_t key) {
    return std::vector<int64_t>{key, key % 7, -key};
  };
  auto db = *Database::Create(options);
  make_table(db.get(), "A");
  make_table(db.get(), "B");
  for (int64_t a = 0; a < 2000; ++a) {
    ASSERT_TRUE(db->InsertRow("A", row(a)).ok());
  }

  std::map<int64_t, Rid> model;  // B's acknowledged rows: key -> RID
  std::atomic<bool> stop{false};
  std::atomic<int64_t> attempted{0};
  std::thread updater([&] {
    for (int64_t key = 0; !stop.load(); ++key) {
      auto rid = db->InsertRow("B", row(key));
      bool ok = rid.ok();
      if (ok) model[key] = *rid;
      if (ok && key % 3 == 2) {  // and delete the oldest row left
        ok = db->DeleteRow("B", model.begin()->second).ok();
        model.erase(model.begin());
      }
      if (!ok) {
        ADD_FAILURE() << "updater op on key " << key;
        stop = true;
      }
      ++attempted;
    }
  });
  while (attempted.load() == 0) std::this_thread::yield();
  int64_t deleted = 0;
  for (int round = 0; round < 5; ++round) {
    for (Strategy strategy :
         {Strategy::kTraditionalSorted, Strategy::kDropCreate}) {
      BulkDeleteSpec bd;
      bd.table = "A";
      bd.key_column = "A";
      for (int i = 0; i < 100; ++i) bd.keys.push_back(deleted++);
      auto report = db->BulkDelete(bd, strategy);
      EXPECT_TRUE(report.ok() && report->rows_deleted == 100)
          << report.status().ToString();
    }
    EXPECT_TRUE(db->Checkpoint().ok());
  }
  stop = true;
  updater.join();

  // Drop every frame, so B is compared as the flushes left it on disk.
  ASSERT_TRUE(db->pool().Reset().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(db->GetTable("A")->table->tuple_count(),
            static_cast<uint64_t>(2000 - deleted));
  auto ref = *Database::Create(options);
  make_table(ref.get(), "B");
  for (const auto& [key, rid] : model) {
    ASSERT_TRUE(ref->InsertRow("B", row(key)).ok());
  }
  EXPECT_EQ(*LogicalContentHash(db.get(), "B"),
            *LogicalContentHash(ref.get(), "B"));
}

// Drop & create on table A drops and re-creates A's secondary indexes while
// another thread checkpoints: the checkpoint's flush walks every table's
// index vector and takes each index's latch, so it must never see A's
// vector change mid-walk or latch an index the statement already dropped.
TEST(FlushLatchTest, DropCreateOnATableBesideCheckpointsOnAnotherThread) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto db = *Database::Create(options);
  for (const char* name : {"A", "B"}) {
    ASSERT_TRUE(db->CreateTable(name, *Schema::PaperStyle(3, 64)).ok());
    ASSERT_TRUE(db->CreateIndex(name, "A", {.unique = true}).ok());
    ASSERT_TRUE(db->CreateIndex(name, "B").ok());
    ASSERT_TRUE(db->CreateIndex(name, "C").ok());
    for (int64_t a = 0; a < 2000; ++a) {
      ASSERT_TRUE(db->InsertRow(name, {a, a % 7, -a}).ok());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> checkpoints{0};
  std::thread checkpointer([&] {
    while (!stop.load()) {
      Status s = db->Checkpoint();
      if (!s.ok()) {
        ADD_FAILURE() << "checkpoint: " << s.ToString();
        return;
      }
      ++checkpoints;
      // Checkpoints wait for a running statement; leave it room to start.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  while (checkpoints.load() == 0) std::this_thread::yield();
  int64_t deleted = 0;
  for (int round = 0; round < 10; ++round) {
    BulkDeleteSpec bd;
    bd.table = "A";
    bd.key_column = "A";
    for (int i = 0; i < 100; ++i) bd.keys.push_back(deleted++);
    auto report = db->BulkDelete(bd, Strategy::kDropCreate);
    EXPECT_TRUE(report.ok() && report->rows_deleted == 100)
        << report.status().ToString();
  }
  stop = true;
  checkpointer.join();

  ASSERT_TRUE(db->pool().Reset().ok());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(db->GetTable("A")->table->tuple_count(),
            static_cast<uint64_t>(2000 - deleted));
  EXPECT_EQ(db->GetTable("A")->indices.size(), 3u);
}

TEST(LockManagerTest, ExclusiveExcludesShared) {
  LockManager lm;
  lm.LockExclusive("R");
  std::atomic<bool> got_shared{false};
  std::thread t([&] {
    lm.LockShared("R");
    got_shared = true;
    lm.UnlockShared("R");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(got_shared.load());
  lm.UnlockExclusive("R");
  t.join();
  EXPECT_TRUE(got_shared.load());
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  lm.LockShared("R");
  std::atomic<bool> got{false};
  std::thread t([&] {
    lm.LockShared("R");
    got = true;
    lm.UnlockShared("R");
  });
  t.join();
  EXPECT_TRUE(got.load());
  lm.UnlockShared("R");
}

TEST(SideFileTest, AppendPeekConsumeOrdering) {
  SideFile sf;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(sf.TryEnterAppend());
    ASSERT_TRUE(
        sf.Append(SideFileOp{true, i, Rid(1, static_cast<uint16_t>(i))},
                  nullptr)
            .ok());
    sf.ExitAppend();
  }
  EXPECT_EQ(sf.size(), 10u);
  // All appends came from this thread (one shard), so order is FIFO.
  auto batch = *sf.PeekBatch(4);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].key, 0);
  EXPECT_EQ(batch[3].key, 3);
  // Peek does not consume: the same front comes back until ConsumeFront.
  EXPECT_EQ(sf.size(), 10u);
  auto again = *sf.PeekBatch(4);
  EXPECT_EQ(again[0].key, 0);
  ASSERT_TRUE(sf.ConsumeFront(4).ok());
  EXPECT_EQ(sf.size(), 6u);
  batch = *sf.PeekBatch(100);
  EXPECT_EQ(batch.size(), 6u);
  EXPECT_EQ(batch[0].key, 4);
  ASSERT_TRUE(sf.ConsumeFront(batch.size()).ok());
  EXPECT_EQ(sf.size(), 0u);
  // Over-consuming is an error, not a crash.
  EXPECT_FALSE(sf.ConsumeFront(1).ok());
}

TEST(SideFileTest, QuiesceGateRejectsAppenders) {
  SideFile sf;
  {
    SideFile::QuiesceGuard quiesce(&sf);
    EXPECT_FALSE(sf.TryEnterAppend());
  }
  EXPECT_TRUE(sf.TryEnterAppend());
  sf.ExitAppend();
}

}  // namespace
}  // namespace bulkdel
