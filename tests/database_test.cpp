// Integration tests of the Database façade: DDL, index-maintaining DML,
// bulk-delete strategies, bulk update, catalog persistence.

#include "core/database.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "workload/generator.h"

namespace bulkdel {
namespace {

DatabaseOptions SmallOptions() {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  return options;
}

WorkloadSpec SmallSpec(uint64_t n = 5000) {
  WorkloadSpec spec;
  spec.n_tuples = n;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  return spec;
}

TEST(DatabaseTest, CreateTableAndIndexDdl) {
  auto db = *Database::Create(SmallOptions());
  Schema schema = *Schema::PaperStyle(3, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  EXPECT_EQ(db->CreateTable("R", schema).status().code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  EXPECT_EQ(db->CreateIndex("R", "A").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db->CreateIndex("R", "Z").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(db->CreateIndex("S", "A").status().code(), StatusCode::kNotFound);
  EXPECT_NE(db->GetIndex("R", "A"), nullptr);
  EXPECT_EQ(db->GetIndex("R", "B"), nullptr);
}

TEST(DatabaseTest, InsertGetDeleteRowMaintainsIndices) {
  auto db = *Database::Create(SmallOptions());
  Schema schema = *Schema::PaperStyle(3, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  ASSERT_TRUE(db->CreateIndex("R", "A", {.unique = true}).ok());
  ASSERT_TRUE(db->CreateIndex("R", "B").ok());

  auto rid = db->InsertRow("R", {1, 10, 100});
  ASSERT_TRUE(rid.ok());
  auto row = db->GetRow("R", *rid);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(*row, (std::vector<int64_t>{1, 10, 100}));

  // Unique violation rolls the heap insert back.
  auto dup = db->InsertRow("R", {1, 20, 200});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 1u);
  ASSERT_TRUE(db->VerifyIntegrity().ok());

  ASSERT_TRUE(db->DeleteRow("R", *rid).ok());
  EXPECT_TRUE(db->GetRow("R", *rid).status().IsNotFound());
  EXPECT_TRUE(db->GetIndex("R", "A")->tree->Search(1)->empty());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST(DatabaseTest, InsertRowArityChecked) {
  auto db = *Database::Create(SmallOptions());
  Schema schema = *Schema::PaperStyle(3, 64);
  ASSERT_TRUE(db->CreateTable("R", schema).ok());
  EXPECT_EQ(db->InsertRow("R", {1, 2}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db->InsertRow("R", {1, 2, 3, 4}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, WorkloadLoaderPopulatesEverything) {
  auto db = *Database::Create(SmallOptions());
  auto workload = SetUpPaperDatabase(db.get(), SmallSpec(), {"A", "B", "C"});
  ASSERT_TRUE(workload.ok());
  TableDef* table = db->GetTable("R");
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->table->tuple_count(), 5000u);
  EXPECT_EQ(db->GetIndex("R", "A")->tree->entry_count(), 5000u);
  EXPECT_TRUE(db->GetIndex("R", "A")->options.unique);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST(DatabaseTest, WorkloadClusteredLoadIsRidOrderedOnA) {
  auto db = *Database::Create(SmallOptions());
  WorkloadSpec spec = SmallSpec();
  spec.clustered_on_a = true;
  auto workload = SetUpPaperDatabase(db.get(), spec, {"A"});
  ASSERT_TRUE(workload.ok());
  EXPECT_TRUE(db->GetIndex("R", "A")->clustered);
  // Ascending A implies ascending RID.
  int64_t prev_key = -1;
  Rid prev_rid;
  ASSERT_TRUE(db->GetIndex("R", "A")
                  ->tree
                  ->ScanAll([&](int64_t k, const Rid& rid, uint16_t) {
                    EXPECT_GT(k, prev_key);
                    if (prev_key >= 0) {
                      EXPECT_TRUE(prev_rid < rid);
                    }
                    prev_key = k;
                    prev_rid = rid;
                    return Status::OK();
                  })
                  .ok());
}

TEST(DatabaseTest, DeleteKeysExistAndVerify) {
  auto db = *Database::Create(SmallOptions());
  auto workload =
      *SetUpPaperDatabase(db.get(), SmallSpec(), {"A", "B", "C"});
  std::vector<int64_t> keys = workload.MakeDeleteKeys(0.1, 42);
  EXPECT_EQ(keys.size(), 500u);
  std::set<int64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());  // rows sampled without repeats
  for (int64_t k : keys) {
    auto rids = db->GetIndex("R", "A")->tree->Search(k);
    ASSERT_TRUE(rids.ok());
    EXPECT_EQ(rids->size(), 1u);
  }
}

TEST(DatabaseTest, ExplainShowsChosenPlan) {
  auto db = *Database::Create(SmallOptions());
  auto workload =
      *SetUpPaperDatabase(db.get(), SmallSpec(), {"A", "B", "C"});
  BulkDeleteSpec spec;
  spec.table = "R";
  spec.key_column = "A";
  spec.keys = workload.MakeDeleteKeys(0.15, 1);
  auto plan = db->ExplainBulkDelete(spec, Strategy::kOptimizer);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->Explain().empty());
  EXPECT_NE(plan->strategy, Strategy::kOptimizer);  // resolved
}

TEST(DatabaseTest, BulkDeleteUnknownTableOrColumn) {
  auto db = *Database::Create(SmallOptions());
  BulkDeleteSpec spec;
  spec.table = "nope";
  spec.key_column = "A";
  EXPECT_TRUE(db->BulkDelete(spec, Strategy::kVerticalSortMerge)
                  .status()
                  .IsNotFound());
}

TEST(DatabaseTest, VerticalWithoutKeyIndexFallsBackToScan) {
  auto db = *Database::Create(SmallOptions());
  auto workload = *SetUpPaperDatabase(db.get(), SmallSpec(), {"B", "C"});
  BulkDeleteSpec spec;
  spec.table = "R";
  spec.key_column = "A";  // no index on A
  spec.keys = workload.MakeDeleteKeys(0.1, 3);
  auto report = db->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->rows_deleted, spec.keys.size());
  ASSERT_TRUE(db->VerifyIntegrity().ok());
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(),
            5000u - spec.keys.size());
}

TEST(DatabaseTest, CheckpointPersistsCatalogAndCounts) {
  auto db = *Database::Create(SmallOptions());
  auto workload = *SetUpPaperDatabase(db.get(), SmallSpec(1000), {"A", "B"});
  (void)workload;
  ASSERT_TRUE(db->Checkpoint().ok());
  // Simulated crash right after a checkpoint: nothing lost.
  ASSERT_TRUE(db->SimulateCrashAndRecover().ok());
  EXPECT_EQ(db->GetTable("R")->table->tuple_count(), 1000u);
  EXPECT_EQ(db->GetIndex("R", "A")->tree->entry_count(), 1000u);
  ASSERT_TRUE(db->VerifyIntegrity().ok());
}

TEST(DatabaseTest, ReportContainsPhasesAndIo) {
  auto db = *Database::Create(SmallOptions());
  auto workload =
      *SetUpPaperDatabase(db.get(), SmallSpec(), {"A", "B", "C"});
  BulkDeleteSpec spec;
  spec.table = "R";
  spec.key_column = "A";
  spec.keys = workload.MakeDeleteKeys(0.15, 5);
  auto report = db->BulkDelete(spec, Strategy::kVerticalSortMerge);
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->phases.size(), 4u);  // key index, table, B, C, finalize
  EXPECT_GT(report->io.reads + report->io.writes, 0);
  EXPECT_GT(report->simulated_seconds(), 0.0);
  EXPECT_FALSE(report->plan_explain.empty());
  EXPECT_FALSE(report->ToString().empty());
}

}  // namespace
}  // namespace bulkdel
