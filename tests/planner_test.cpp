#include "plan/planner.h"

#include <gtest/gtest.h>

#include "btree/btree_node.h"
#include "storage/page.h"

namespace bulkdel {
namespace {

/// A paper-shaped input: 100k-tuple table, three indices, A unique.
PlannerInput PaperInput(uint64_t n_delete, bool a_clustered = false) {
  PlannerInput input;
  input.table.tuples = 100000;
  input.table.pages = 100000 / 15;
  input.table.tuples_per_page = 15;
  input.n_delete = n_delete;
  const char* names[] = {"R.A", "R.B", "R.C"};
  for (int i = 0; i < 3; ++i) {
    IndexInfo info;
    info.name = names[i];
    info.column = i;
    info.entries = 100000;
    info.leaves = 100000 / 250;
    info.height = 3;
    info.unique = i == 0;
    info.clustered = i == 0 && a_clustered;
    info.is_key_index = i == 0;
    input.indices.push_back(info);
  }
  return input;
}

CostModel DefaultCost(size_t budget = 1 << 20) {
  return CostModel(DiskModel(), budget);
}

TEST(CostModelTest, SeqCheaperThanRandom) {
  CostModel cost = DefaultCost();
  EXPECT_LT(cost.SeqPages(100), cost.RandomPages(100));
}

TEST(CostModelTest, SortFreeWhenFits) {
  CostModel cost = DefaultCost(1 << 20);
  EXPECT_EQ(cost.SortCost(1000, 8), 0.0);
  EXPECT_GT(cost.SortCost(10 * 1000 * 1000, 8), 0.0);
}

TEST(CostModelTest, TraditionalGrowsWithDeletes) {
  CostModel cost = DefaultCost();
  PlannerInput small = PaperInput(100);
  PlannerInput large = PaperInput(20000);
  EXPECT_LT(
      cost.TraditionalCost(small.table, small.indices, small.n_delete, false),
      cost.TraditionalCost(large.table, large.indices, large.n_delete, false));
}

TEST(CostModelTest, SortedTraditionalBeatsUnsorted) {
  CostModel cost = DefaultCost();
  PlannerInput input = PaperInput(15000);
  EXPECT_LT(
      cost.TraditionalCost(input.table, input.indices, input.n_delete, true),
      cost.TraditionalCost(input.table, input.indices, input.n_delete, false));
}

TEST(CostModelTest, MergePassInsensitiveToHeight) {
  CostModel cost = DefaultCost();
  IndexInfo h3;
  h3.leaves = 400;
  h3.height = 3;
  IndexInfo h4 = h3;
  h4.height = 4;
  EXPECT_EQ(cost.IndexMergePassCost(h3, 15000),
            cost.IndexMergePassCost(h4, 15000));
}

TEST(CostModelTest, RangeLeafRunWritesNoCoveredLeaf) {
  CostModel cost = DefaultCost();
  IndexInfo index;
  index.entries = 1000000;
  index.leaves = 4000;
  index.height = 3;
  // Half the key range: 2,000 covered leaves are read and spliced out
  // unwritten. The writes are 2 boundary leaves, 2 splice neighbours, the
  // inner levels rebuilt over the 2,000 survivors and the meta page.
  double covered = 2000.0;
  double writes =
      cost.IndexRangeLeafRunCost(index, 500000) - cost.SeqPages(covered);
  double inner = covered / (BTreeNode::InnerPageCapacity() - 1.0);
  EXPECT_GT(writes, 0.0);
  EXPECT_LE(writes, cost.SeqPages(2.0 + 2.0 + inner + 1.0));
  // Covering 1,000 more leaves adds their reads and no writes.
  EXPECT_LE(cost.IndexRangeLeafRunCost(index, 750000) -
                cost.IndexRangeLeafRunCost(index, 500000),
            cost.SeqPages(1000.0));
}

TEST(PlannerTest, LargeDeleteChoosesVertical) {
  CostModel cost = DefaultCost();
  Planner planner(cost);
  auto plan = planner.Choose(PaperInput(15000));  // 15%
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->strategy == Strategy::kVerticalSortMerge ||
              plan->strategy == Strategy::kVerticalHash ||
              plan->strategy == Strategy::kVerticalPartitionedHash);
}

TEST(PlannerTest, TinyDeleteChoosesHorizontal) {
  CostModel cost = DefaultCost();
  Planner planner(cost);
  auto plan = planner.Choose(PaperInput(3));
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->strategy == Strategy::kTraditional ||
              plan->strategy == Strategy::kTraditionalSorted)
      << StrategyName(plan->strategy);
}

TEST(PlannerTest, VerticalPlanOrdersUniqueFirst) {
  CostModel cost = DefaultCost();
  Planner planner(cost);
  PlannerInput input = PaperInput(15000);
  input.indices[2].unique = true;  // make R.C unique too
  auto plan = planner.PlanFor(Strategy::kVerticalSortMerge, input);
  ASSERT_TRUE(plan.ok());
  // Steps: key index, table, then R.C (unique) before R.B.
  ASSERT_EQ(plan->steps.size(), 4u);
  EXPECT_EQ(plan->steps[0].structure, "R.A");
  EXPECT_TRUE(plan->steps[1].is_table);
  EXPECT_EQ(plan->steps[2].structure, "R.C");
  EXPECT_EQ(plan->steps[3].structure, "R.B");
}

TEST(PlannerTest, PriorityOrdersNonUniqueIndices) {
  // §3.1.3: critical indices first. R.C gets a high priority.
  CostModel cost = DefaultCost();
  Planner planner(cost);
  PlannerInput input = PaperInput(15000);
  input.indices[2].priority = 5;  // R.C before R.B
  auto plan = planner.PlanFor(Strategy::kVerticalSortMerge, input);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 4u);
  EXPECT_EQ(plan->steps[2].structure, "R.C");
  EXPECT_EQ(plan->steps[3].structure, "R.B");
  // Unique still trumps priority.
  input.indices[1].unique = true;  // R.B unique, low priority
  plan = planner.PlanFor(Strategy::kVerticalSortMerge, input);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps[2].structure, "R.B");
  EXPECT_EQ(plan->steps[3].structure, "R.C");
}

TEST(PlannerTest, ClusteredKeyIndexSkipsRidSort) {
  CostModel cost = DefaultCost();
  Planner planner(cost);
  auto plan = planner.PlanFor(Strategy::kVerticalSortMerge,
                              PaperInput(15000, /*a_clustered=*/true));
  ASSERT_TRUE(plan.ok());
  ASSERT_GE(plan->steps.size(), 2u);
  EXPECT_TRUE(plan->steps[1].is_table);
  EXPECT_TRUE(plan->steps[1].input_sorted);
}

TEST(PlannerTest, HashForcedFallsBackToPartitionedWhenTooBig) {
  // Budget too small for a 15k-RID hash set.
  CostModel cost = DefaultCost(32 * 1024);
  Planner planner(cost);
  auto plan = planner.PlanFor(Strategy::kVerticalHash, PaperInput(15000));
  ASSERT_TRUE(plan.ok());
  bool any_partitioned = false;
  for (const PlanStep& step : plan->steps) {
    if (step.method == DeleteMethod::kPartitionedHash) any_partitioned = true;
    EXPECT_NE(step.method == DeleteMethod::kClassicHash && !step.is_table &&
                  step.structure != "R.A",
              true)
        << "classic hash chosen despite not fitting";
  }
  EXPECT_TRUE(any_partitioned);
}

TEST(PlannerTest, ExplainMentionsEveryStructure) {
  CostModel cost = DefaultCost();
  Planner planner(cost);
  auto plan = planner.PlanFor(Strategy::kVerticalSortMerge, PaperInput(15000));
  ASSERT_TRUE(plan.ok());
  std::string text = plan->Explain();
  EXPECT_NE(text.find("R.A"), std::string::npos);
  EXPECT_NE(text.find("R.B"), std::string::npos);
  EXPECT_NE(text.find("R.C"), std::string::npos);
  EXPECT_NE(text.find("table"), std::string::npos);
}

TEST(PlannerTest, EstimatesComparableToSimulatedScale) {
  // The estimate should land within the right order of magnitude of a
  // leaf-level pass: 3 indices * 400 leaves * ~0.4ms plus table pass.
  CostModel cost = DefaultCost();
  Planner planner(cost);
  auto plan = planner.PlanFor(Strategy::kVerticalSortMerge, PaperInput(15000));
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->est_micros, 1e5);
  EXPECT_LT(plan->est_micros, 1e8);
}

}  // namespace
}  // namespace bulkdel
