#include "workload/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "core/database.h"
#include "fault/crash_sweep.h"

namespace bulkdel {
namespace {

std::unique_ptr<Database> MakeDb() {
  DatabaseOptions options;
  options.memory_budget_bytes = 256 * 1024;
  return *Database::Create(options);
}

TEST(WorkloadTest, ColumnsAreDuplicateFree) {
  auto db = MakeDb();
  WorkloadSpec spec;
  spec.n_tuples = 3000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A"});
  for (const auto& column : workload.values) {
    std::set<int64_t> distinct(column.begin(), column.end());
    EXPECT_EQ(distinct.size(), column.size());
  }
  EXPECT_EQ(workload.rids.size(), spec.n_tuples);
}

TEST(WorkloadTest, DeterministicUnderSeed) {
  WorkloadSpec spec;
  spec.n_tuples = 500;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  auto db1 = MakeDb();
  auto db2 = MakeDb();
  auto w1 = *SetUpPaperDatabase(db1.get(), spec, {"A"});
  auto w2 = *SetUpPaperDatabase(db2.get(), spec, {"A"});
  EXPECT_EQ(w1.values[0], w2.values[0]);
  EXPECT_EQ(w1.values[2], w2.values[2]);
  EXPECT_EQ(w1.MakeDeleteKeys(0.1, 9), w2.MakeDeleteKeys(0.1, 9));
}

TEST(WorkloadTest, DeleteKeysAreDistinctExistingAValues) {
  auto db = MakeDb();
  WorkloadSpec spec;
  spec.n_tuples = 2000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A"});
  std::set<int64_t> population(workload.values[0].begin(),
                               workload.values[0].end());
  auto keys = workload.MakeDeleteKeys(0.25, 4);
  EXPECT_EQ(keys.size(), 500u);
  std::set<int64_t> distinct(keys.begin(), keys.end());
  EXPECT_EQ(distinct.size(), keys.size());
  for (int64_t k : keys) EXPECT_EQ(population.count(k), 1u) << k;
}

TEST(WorkloadTest, FractionClampedToWholeTable) {
  auto db = MakeDb();
  WorkloadSpec spec;
  spec.n_tuples = 100;
  spec.n_int_columns = 2;
  spec.tuple_size = 32;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A"});
  EXPECT_EQ(workload.MakeDeleteKeys(5.0, 1).size(), 100u);
  EXPECT_TRUE(workload.MakeDeleteKeys(0.0, 1).empty());
}

TEST(WorkloadTest, ClusteredLoadSortsAllColumnsConsistently) {
  auto db = MakeDb();
  WorkloadSpec spec;
  spec.n_tuples = 1000;
  spec.n_int_columns = 3;
  spec.tuple_size = 64;
  spec.clustered_on_a = true;
  auto workload = *SetUpPaperDatabase(db.get(), spec, {"A", "B"});
  // A ascends in row order...
  for (size_t i = 1; i < workload.values[0].size(); ++i) {
    EXPECT_LT(workload.values[0][i - 1], workload.values[0][i]);
  }
  // ...and each row's values stayed together: verify via the table.
  TableDef* table = db->GetTable("R");
  for (size_t i = 0; i < 100; ++i) {
    auto row = db->GetRow("R", workload.rids[i]);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0], workload.values[0][i]);
    EXPECT_EQ((*row)[1], workload.values[1][i]);
  }
  (void)table;
}

// SetUpPaperDatabase loads the heap first and then bulk-loads each index.
// Its content must equal a twin whose indices existed before the load and
// were filled by one insert per row, and each bulk-loaded index must be
// full and chained in page order. 20,000 entries of 16 B exceed the 256 KiB
// budget, so each index build spills sort runs, as every bench's does.
TEST(WorkloadTest, BulkLoadedIndexesMatchRowInsertedTwin) {
  for (bool clustered : {false, true}) {
    SCOPED_TRACE(clustered ? "clustered on A" : "unclustered");
    WorkloadSpec spec;
    spec.n_tuples = 20000;
    spec.n_int_columns = 4;
    spec.tuple_size = 64;
    spec.clustered_on_a = clustered;
    const std::vector<std::string> columns = {"A", "B", "C"};

    auto db = MakeDb();
    auto workload = SetUpPaperDatabase(db.get(), spec, columns);
    ASSERT_TRUE(workload.ok()) << workload.status().ToString();

    auto twin = MakeDb();
    Schema schema = *Schema::PaperStyle(spec.n_int_columns, spec.tuple_size);
    ASSERT_TRUE(twin->CreateTable("R", schema).ok());
    for (const std::string& column : columns) {
      IndexOptions options;
      options.unique = column == "A";
      ASSERT_TRUE(twin->CreateIndex("R", column, options,
                                    column == "A" && clustered)
                      .ok());
    }
    auto twin_workload = LoadWorkload(twin.get(), spec);
    ASSERT_TRUE(twin_workload.ok()) << twin_workload.status().ToString();

    EXPECT_EQ(*LogicalContentHash(db.get(), "R"),
              *LogicalContentHash(twin.get(), "R"));
    EXPECT_TRUE(db->VerifyIntegrity().ok());

    for (const std::string& column : columns) {
      SCOPED_TRACE("index " + column);
      BTree* tree = db->GetIndex("R", column)->tree.get();
      ASSERT_TRUE(tree->CheckInvariants().ok());
      uint64_t capacity = tree->leaf_capacity();
      EXPECT_EQ(tree->num_leaves(),
                (spec.n_tuples + capacity - 1) / capacity);
      auto chain = tree->LeafChain();
      ASSERT_TRUE(chain.ok());
      ASSERT_EQ(chain->size(), tree->num_leaves());
      for (size_t i = 1; i < chain->size(); ++i) {
        ASSERT_LT((*chain)[i - 1], (*chain)[i]) << "leaf " << i;
      }
    }
  }
}

TEST(WorkloadTest, PaperStyleSchemaValidation) {
  EXPECT_FALSE(Schema::PaperStyle(0, 512).ok());
  EXPECT_FALSE(Schema::PaperStyle(27, 512).ok());
  EXPECT_FALSE(Schema::PaperStyle(10, 40).ok());  // smaller than the ints
  Schema s = *Schema::PaperStyle(10, 512);
  EXPECT_EQ(s.tuple_size(), 512u);
  EXPECT_EQ(s.num_columns(), 11u);
  Schema no_pad = *Schema::PaperStyle(2, 16);
  EXPECT_EQ(no_pad.num_columns(), 2u);
}

}  // namespace
}  // namespace bulkdel
