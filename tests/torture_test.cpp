// System torture: long randomized interleavings of row DML, bulk deletes of
// every strategy and crash/recovery cycles, with full
// integrity verification between rounds. This is the "does the whole thing
// hold together" test.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/database.h"
#include "fault/fault_injector.h"
#include "util/random.h"

namespace bulkdel {
namespace {

TEST(TortureTest, MixedWorkloadManyRounds) {
  auto injector = std::make_shared<FaultInjector>();
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  options.enable_recovery_log = true;
  options.fault_injector = injector;
  auto db = *Database::Create(options);
  Schema schema = *Schema::PaperStyle(3, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("R", "B").ok());
  ASSERT_TRUE(db->CreateIndex("R", "C").ok());

  Random rng(20010407);
  // Reference model: A value -> (B, C). RIDs tracked separately per A.
  std::map<int64_t, std::pair<int64_t, int64_t>> model;
  std::map<int64_t, Rid> rids;
  int64_t next_a = 0;

  const Strategy strategies[] = {
      Strategy::kTraditional,       Strategy::kTraditionalSorted,
      Strategy::kDropCreate,        Strategy::kVerticalSortMerge,
      Strategy::kVerticalHash,      Strategy::kVerticalPartitionedHash,
      Strategy::kOptimizer,
  };

  for (int round = 0; round < 12; ++round) {
    // Phase 1: random row DML.
    for (int op = 0; op < 800; ++op) {
      if (model.empty() || rng.Bernoulli(0.7)) {
        int64_t a = next_a++;
        int64_t b = static_cast<int64_t>(rng.Next() >> 20);
        int64_t c = static_cast<int64_t>(rng.Next() >> 20);
        auto rid = db->InsertRow("R", {a, b, c});
        ASSERT_TRUE(rid.ok()) << rid.status().ToString();
        model[a] = {b, c};
        rids[a] = *rid;
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_TRUE(db->DeleteRow("R", rids[it->first]).ok());
        rids.erase(it->first);
        model.erase(it);
      }
    }

    // Phase 2: a bulk delete of ~20% with a rotating strategy.
    std::vector<int64_t> doomed;
    for (const auto& [a, bc] : model) {
      if (rng.Bernoulli(0.2)) doomed.push_back(a);
    }
    BulkDeleteSpec spec;
    spec.table = "R";
    spec.key_column = "A";
    spec.keys = doomed;
    Strategy strategy = strategies[round % std::size(strategies)];
    auto report = db->BulkDelete(spec, strategy);
    ASSERT_TRUE(report.ok())
        << StrategyName(strategy) << ": " << report.status().ToString();
    ASSERT_EQ(report->rows_deleted, doomed.size());
    for (int64_t a : doomed) {
      model.erase(a);
      rids.erase(a);
    }

    // Phase 3: occasionally a crash + recovery mid-bulk-delete.
    if (round % 4 == 2 && model.size() > 10) {
      std::vector<int64_t> doomed2;
      for (const auto& [a, bc] : model) {
        if (rng.Bernoulli(0.1)) doomed2.push_back(a);
      }
      const char* points[] = {"index:R.A", "table", "index:R.B", "index:R.C"};
      ASSERT_TRUE(db->Checkpoint().ok());
      injector->Arm(fault_sites::kSchedPhaseStart, 1, FaultMode::kCrash,
                    points[round % 4]);
      BulkDeleteSpec spec2;
      spec2.table = "R";
      spec2.key_column = "A";
      spec2.keys = doomed2;
      auto crashed = db->BulkDelete(spec2, Strategy::kVerticalSortMerge);
      ASSERT_TRUE(crashed.status().IsAborted());
      ASSERT_TRUE(injector->tripped());
      injector->Disarm();
      ASSERT_TRUE(db->SimulateCrashAndRecover().ok());
      for (int64_t a : doomed2) {
        model.erase(a);
        rids.erase(a);
      }
      // RIDs may have been recycled across the crash for rows inserted
      // after... (no inserts happened mid-crash). Re-derive RIDs.
      rids.clear();
      TableDef* table = db->GetTable("R");
      ASSERT_TRUE(table->table
                      ->Scan([&](const Rid& rid, const char* tuple) {
                        rids[table->schema->GetInt(tuple, 0)] = rid;
                        return Status::OK();
                      })
                      .ok());
    }

    // Verify: table contents equal the model, all indices consistent.
    TableDef* table = db->GetTable("R");
    ASSERT_EQ(table->table->tuple_count(), model.size()) << "round " << round;
    uint64_t seen = 0;
    ASSERT_TRUE(table->table
                    ->Scan([&](const Rid&, const char* tuple) {
                      int64_t a = table->schema->GetInt(tuple, 0);
                      auto it = model.find(a);
                      if (it == model.end()) {
                        return Status::Internal("unexpected row");
                      }
                      if (table->schema->GetInt(tuple, 1) !=
                              it->second.first ||
                          table->schema->GetInt(tuple, 2) !=
                              it->second.second) {
                        return Status::Internal("row payload mismatch");
                      }
                      ++seen;
                      return Status::OK();
                    })
                    .ok())
        << "round " << round;
    ASSERT_EQ(seen, model.size());
    ASSERT_TRUE(db->VerifyIntegrity().ok()) << "round " << round;
  }
}

TEST(EdgeCaseTest, EmptyDeleteListEveryStrategy) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  auto db = *Database::Create(options);
  Schema schema = *Schema::PaperStyle(2, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("R", "B").ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->InsertRow("R", {i, i}).ok());
  }
  BulkDeleteSpec spec;
  spec.table = "R";
  spec.key_column = "A";  // keys empty
  for (Strategy s : {Strategy::kTraditional, Strategy::kTraditionalSorted,
                     Strategy::kDropCreate, Strategy::kVerticalSortMerge,
                     Strategy::kVerticalHash,
                     Strategy::kVerticalPartitionedHash,
                     Strategy::kOptimizer}) {
    auto report = db->BulkDelete(spec, s);
    ASSERT_TRUE(report.ok()) << StrategyName(s);
    EXPECT_EQ(report->rows_deleted, 0u) << StrategyName(s);
    ASSERT_TRUE(db->VerifyIntegrity().ok()) << StrategyName(s);
  }
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 100u);
}

TEST(EdgeCaseTest, DeleteEverythingEveryVerticalStrategy) {
  for (Strategy s : {Strategy::kVerticalSortMerge, Strategy::kVerticalHash,
                     Strategy::kVerticalPartitionedHash,
                     Strategy::kTraditionalSorted, Strategy::kDropCreate}) {
    DatabaseOptions options;
    options.memory_budget_bytes = 256 * 1024;
    auto db = *Database::Create(options);
    Schema schema = *Schema::PaperStyle(3, 64);
    ASSERT_TRUE(db->CreateTable("R", schema).ok());
    ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
    ASSERT_TRUE(db->CreateIndex("R", "B").ok());
    BulkDeleteSpec spec;
    spec.table = "R";
    spec.key_column = "A";
    for (int64_t i = 0; i < 2000; ++i) {
      ASSERT_TRUE(db->InsertRow("R", {i, i * 2, i * 3}).ok());
      spec.keys.push_back(i);
    }
    auto report = db->BulkDelete(spec, s);
    ASSERT_TRUE(report.ok()) << StrategyName(s);
    EXPECT_EQ(report->rows_deleted, 2000u) << StrategyName(s);
    EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 0u);
    ASSERT_TRUE(db->VerifyIntegrity().ok()) << StrategyName(s);
    // The database is fully usable after total deletion.
    ASSERT_TRUE(db->InsertRow("R", {1, 2, 3}).ok());
    ASSERT_TRUE(db->VerifyIntegrity().ok());
  }
}

TEST(EdgeCaseTest, RepeatedBulkDeletesShrinkToNothing) {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  options.reorg = ReorgMode::kCompactAndRebuild;
  auto db = *Database::Create(options);
  Schema schema = *Schema::PaperStyle(2, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  std::vector<int64_t> alive;
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(db->InsertRow("R", {i, i}).ok());
    alive.push_back(i);
  }
  Random rng(8);
  while (alive.size() > 10) {
    BulkDeleteSpec spec;
    spec.table = "R";
    spec.key_column = "A";
    std::vector<int64_t> survivors;
    for (int64_t a : alive) {
      if (rng.Bernoulli(0.5)) {
        spec.keys.push_back(a);
      } else {
        survivors.push_back(a);
      }
    }
    auto report = db->BulkDelete(spec, Strategy::kVerticalSortMerge);
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->rows_deleted, spec.keys.size());
    alive = std::move(survivors);
    ASSERT_TRUE(db->VerifyIntegrity().ok());
  }
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), alive.size());
}

}  // namespace
}  // namespace bulkdel
