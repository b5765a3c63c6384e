// Every strategy must produce exactly the same end state: the doomed rows
// gone from the table and every index, everything else untouched, and all
// structural invariants intact. Parameterized across strategies × workload
// shapes (clustered / unclustered, index counts, delete fractions, reorg
// modes).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/database.h"
#include "workload/generator.h"

namespace bulkdel {
namespace {

struct EquivalenceParam {
  Strategy strategy;
  double fraction;
  int n_indices;       // 1..3 (A always first)
  bool clustered;
  ReorgMode reorg;
  const char* name;
};

std::string ParamName(const ::testing::TestParamInfo<EquivalenceParam>& info) {
  return info.param.name;
}

class StrategyEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

struct RunOutcome {
  uint64_t rows_deleted = 0;
  int64_t simulated_micros = 0;
  std::multiset<int64_t> surviving_a;
};

/// Builds the parameterized workload on a fresh database, runs the bulk
/// delete with `exec_threads` workers, and checks the end state against the
/// doomed set. Returns the outcome so callers can compare across thread
/// counts.
RunOutcome RunOnce(const EquivalenceParam& param, int exec_threads,
                   size_t memory_budget_bytes) {
  DatabaseOptions options;
  options.memory_budget_bytes = memory_budget_bytes;
  options.reorg = param.reorg;
  options.exec_threads = exec_threads;
  auto db = *Database::Create(options);

  WorkloadSpec spec;
  spec.n_tuples = 4000;
  spec.n_int_columns = 4;
  spec.tuple_size = 64;
  spec.clustered_on_a = param.clustered;
  std::vector<std::string> columns = {"A", "B", "C"};
  columns.resize(static_cast<size_t>(param.n_indices));
  auto workload = *SetUpPaperDatabase(db.get(), spec, columns);

  BulkDeleteSpec bd;
  bd.table = "R";
  bd.key_column = "A";
  bd.keys = workload.MakeDeleteKeys(param.fraction, 77);
  std::set<int64_t> doomed(bd.keys.begin(), bd.keys.end());

  auto report = db->BulkDelete(bd, param.strategy);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return RunOutcome{};

  RunOutcome out;
  out.rows_deleted = report->rows_deleted;
  out.simulated_micros = report->io.simulated_micros;
  EXPECT_EQ(report->rows_deleted, bd.keys.size());

  // Exactly the expected rows remain.
  TableDef* table = db->GetTable("R");
  EXPECT_EQ(table->table->tuple_count(), spec.n_tuples - doomed.size());
  EXPECT_TRUE(table->table
                  ->Scan([&](const Rid&, const char* tuple) {
                    int64_t a = table->schema->GetInt(tuple, 0);
                    EXPECT_EQ(doomed.count(a), 0u) << "doomed row survived";
                    out.surviving_a.insert(a);
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(out.surviving_a.size(), spec.n_tuples - doomed.size());

  // All indices consistent with the table.
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  return out;
}

TEST_P(StrategyEquivalenceTest, EndStateMatchesReference) {
  RunOnce(GetParam(), /*exec_threads=*/1, /*memory_budget_bytes=*/256 * 1024);
}

/// The phase-DAG scheduler must be invisible to results: the same strategy
/// at exec_threads 1 and 4 produces the identical post-state. Run under the
/// tight memory budget so eviction paths are exercised concurrently.
TEST_P(StrategyEquivalenceTest, ParallelEndStateMatchesSerial) {
  const EquivalenceParam& param = GetParam();
  RunOutcome serial = RunOnce(param, 1, 256 * 1024);
  RunOutcome parallel = RunOnce(param, 4, 256 * 1024);
  EXPECT_EQ(serial.rows_deleted, parallel.rows_deleted);
  EXPECT_EQ(serial.surviving_a, parallel.surviving_a);
}

/// With the working set resident (no evictions, so each phase performs the
/// same page-access sequence regardless of interleaving), the attributed
/// simulated I/O must be bit-identical across thread counts — per-phase
/// attribution classifies sequential/random against the phase's own disk
/// head, not the globally interleaved one.
TEST_P(StrategyEquivalenceTest, ParallelSimulatedIoMatchesSerial) {
  const EquivalenceParam& param = GetParam();
  const size_t roomy = 8ull << 20;
  RunOutcome serial = RunOnce(param, 1, roomy);
  RunOutcome parallel = RunOnce(param, 4, roomy);
  EXPECT_EQ(serial.rows_deleted, parallel.rows_deleted);
  EXPECT_EQ(serial.surviving_a, parallel.surviving_a);
  EXPECT_EQ(serial.simulated_micros, parallel.simulated_micros);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StrategyEquivalenceTest,
    ::testing::Values(
        EquivalenceParam{Strategy::kTraditional, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "Traditional3Idx"},
        EquivalenceParam{Strategy::kTraditionalSorted, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "TraditionalSorted3Idx"},
        EquivalenceParam{Strategy::kDropCreate, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "DropCreate3Idx"},
        EquivalenceParam{Strategy::kVerticalSortMerge, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "SortMerge3Idx"},
        EquivalenceParam{Strategy::kVerticalHash, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "Hash3Idx"},
        EquivalenceParam{Strategy::kVerticalPartitionedHash, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "Partitioned3Idx"},
        EquivalenceParam{Strategy::kOptimizer, 0.10, 3, false,
                         ReorgMode::kFreeAtEmpty, "Optimizer3Idx"},
        EquivalenceParam{Strategy::kVerticalSortMerge, 0.15, 1, true,
                         ReorgMode::kFreeAtEmpty, "SortMergeClustered"},
        EquivalenceParam{Strategy::kTraditionalSorted, 0.15, 1, true,
                         ReorgMode::kFreeAtEmpty, "TradSortedClustered"},
        EquivalenceParam{Strategy::kVerticalSortMerge, 0.20, 2, false,
                         ReorgMode::kCompactAndRebuild, "SortMergeCompact"},
        EquivalenceParam{Strategy::kVerticalHash, 0.20, 2, false,
                         ReorgMode::kCompactAndRebuild, "HashCompact"},
        EquivalenceParam{Strategy::kVerticalSortMerge, 0.002, 3, false,
                         ReorgMode::kFreeAtEmpty, "SortMergeTinyList"},
        EquivalenceParam{Strategy::kDropCreate, 0.20, 2, false,
                         ReorgMode::kFreeAtEmpty, "DropCreateBig"},
        EquivalenceParam{Strategy::kVerticalPartitionedHash, 0.25, 3, false,
                         ReorgMode::kFreeAtEmpty, "PartitionedBig"}),
    ParamName);

}  // namespace
}  // namespace bulkdel
